package dash

import (
	"net"
	"net/http"
	"sync"
	"time"

	"cava/internal/telemetry"
)

// Overload protection for the testbed server. The paper's testbed serves
// one dash.js client; the ROADMAP's production server serves heavy traffic
// from many, and an HTTP server with no admission control fails the way
// PANDA's shared-bottleneck study predicts: every marginal session slows
// every established one until nobody completes. The Protection middleware
// bounds the damage with three mechanisms, outermost first:
//
//  1. Session admission: at most MaxSessions distinct client sessions are
//     active at once. A new session beyond the bound waits in a bounded
//     queue for a slot (sessions expire after SessionIdleSec without a
//     request); when the queue is full, the wait times out, or shedding is
//     immediate, the request is answered 503 + Retry-After — cheap, fast
//     and honest, so well-behaved clients back off instead of piling on.
//  2. Per-session rate limiting: a token bucket per session ID caps the
//     request rate any single client can impose, so one aggressive
//     retry loop cannot starve the others.
//  3. A circuit breaker (breaker.go) between admission and the
//     shaper/fault path, so a failing backend is fast-failed instead of
//     holding shaped-link slots.
//
// /healthz (liveness) and /readyz (readiness: not saturated, breaker not
// open) are answered before admission so orchestration probes are never
// shed. All time flows through the injected Clock; every behaviour is
// unit-testable on a FakeClock.

// SessionIDHeader carries the client's session identity; the resilient
// client stamps it on every request so server-side admission and rate
// limiting key on sessions, not connections.
const SessionIDHeader = "X-Session-Id"

// admissionPollInterval is the queue's slot-recheck period. Wall-clock
// milliseconds in production; a FakeClock turns each poll into a virtual
// advance, so queue timeouts resolve deterministically in tests.
const admissionPollInterval = time.Millisecond

// ProtectionConfig tunes the overload-protection middleware. The zero
// value protects nothing (unbounded sessions, no rate limit, no breaker);
// DefaultProtection returns the standard testbed policy.
type ProtectionConfig struct {
	// MaxSessions bounds concurrently active client sessions (0 = unbounded).
	MaxSessions int
	// QueueDepth bounds how many new sessions may wait for a slot at once;
	// arrivals beyond it are shed immediately (default 16).
	QueueDepth int
	// QueueTimeoutSec is how long a queued session waits for a slot before
	// being shed, in wall seconds (default 2).
	QueueTimeoutSec float64
	// SessionIdleSec is the inactivity window after which a session's slot
	// is reclaimed, in wall seconds (default 30).
	SessionIdleSec float64
	// ShedImmediately disables queueing: a new session that finds the
	// server saturated is shed at once (the dashserve -shed flag).
	ShedImmediately bool
	// RatePerSessionPerSec is each session's token-bucket refill rate in
	// requests per wall second (0 = no rate limit).
	RatePerSessionPerSec float64
	// SessionBurst is each session's bucket capacity in requests
	// (default 25 when rate limiting is on).
	SessionBurst float64
	// RetryAfterSec is the Retry-After hint on shed responses, in seconds
	// (default 1).
	RetryAfterSec float64
	// Breaker, when non-nil, wraps the inner handler in a circuit breaker
	// with the given policy.
	Breaker *BreakerConfig
}

// DefaultProtection returns the standard testbed protection policy for the
// given session bound.
func DefaultProtection(maxSessions int) ProtectionConfig {
	b := DefaultBreakerConfig()
	return ProtectionConfig{
		MaxSessions:          maxSessions,
		QueueDepth:           16,
		QueueTimeoutSec:      2,
		SessionIdleSec:       30,
		RatePerSessionPerSec: 50,
		SessionBurst:         25,
		RetryAfterSec:        1,
		Breaker:              &b,
	}
}

// withDefaults fills zero fields from DefaultProtection. MaxSessions,
// RatePerSessionPerSec and Breaker stay as given: each switches a
// mechanism on, and their zero value means off.
func (c ProtectionConfig) withDefaults() ProtectionConfig {
	d := DefaultProtection(0)
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.QueueTimeoutSec <= 0 {
		c.QueueTimeoutSec = d.QueueTimeoutSec
	}
	if c.SessionIdleSec <= 0 {
		c.SessionIdleSec = d.SessionIdleSec
	}
	if c.RatePerSessionPerSec > 0 && c.SessionBurst <= 0 {
		c.SessionBurst = d.SessionBurst
	}
	if c.RetryAfterSec <= 0 {
		c.RetryAfterSec = d.RetryAfterSec
	}
	return c
}

// AdmissionStats is a snapshot of the admission layer's counters.
type AdmissionStats struct {
	// Requests counts everything the admission layer saw (health probes
	// excluded).
	Requests int
	// Admitted counts requests passed to the inner handler.
	Admitted int
	// ShedQueueFull counts new sessions shed because the wait queue was at
	// capacity (or shedding is immediate).
	ShedQueueFull int
	// ShedQueueTimeout counts queued sessions shed after waiting
	// QueueTimeoutSec without a slot freeing.
	ShedQueueTimeout int
	// ShedRateLimited counts requests shed by a session's token bucket.
	ShedRateLimited int
	// PeakSessions is the high-water mark of concurrently active sessions.
	PeakSessions int
}

// ShedTotal sums every shed reason.
func (s AdmissionStats) ShedTotal() int {
	return s.ShedQueueFull + s.ShedQueueTimeout + s.ShedRateLimited
}

// session is one tracked client session's admission state.
type session struct {
	lastSeen time.Time
	tokens   float64
	refilled time.Time
}

// Protection is the composed overload-protection middleware. Build with
// Protect, then serve Handler().
type Protection struct {
	cfg     ProtectionConfig
	inner   http.Handler // breaker-wrapped when configured
	breaker *Breaker     // nil when disabled
	clock   Clock

	mu       sync.Mutex
	sessions map[string]*session
	waiting  int
	closed   bool
	stats    AdmissionStats
	// drain tracks the goroutines parked in waitForSlot's poll loop, so
	// Close can prove the admission queue is empty before returning.
	drain sync.WaitGroup

	// inflight is the one series with no AdmissionStats field behind it
	// (nil-safe; SetMetrics wires it).
	inflight *telemetry.Gauge
}

// Protect wraps inner with the overload-protection policy.
func Protect(cfg ProtectionConfig, inner http.Handler) *Protection {
	p := &Protection{
		cfg:      cfg.withDefaults(),
		inner:    inner,
		clock:    RealClock(),
		sessions: make(map[string]*session),
	}
	if cfg.Breaker != nil {
		p.breaker = NewBreaker(*cfg.Breaker, inner)
		p.inner = p.breaker
	}
	return p
}

// WithClock substitutes the protection layer's (and its breaker's) clock.
// Call before serving.
func (p *Protection) WithClock(c Clock) *Protection {
	p.clock = realClockOr(c)
	if p.breaker != nil {
		p.breaker.WithClock(c)
	}
	return p
}

// SetMetrics exposes the protection layer on reg (nil disables): the
// counters read AdmissionStats, the session gauges read the session table
// and queue under the lock (without expiring idle sessions), and only the
// in-flight gauge is a handle. Call before serving.
func (p *Protection) SetMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("dash_admission_active_sessions", "client sessions currently holding a slot", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.sessions))
	})
	reg.GaugeFunc("dash_admission_waiting_sessions", "new sessions queued for a slot", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.waiting)
	})
	p.inflight = reg.Gauge("dash_admission_inflight_requests", "admitted requests currently being served")
	reg.CounterFunc("dash_admission_admitted_total", "requests admitted to the inner handler",
		func() uint64 { return uint64(p.AdmissionStats().Admitted) })
	for reason, field := range map[string]func(AdmissionStats) int{
		"queue_full":    func(s AdmissionStats) int { return s.ShedQueueFull },
		"queue_timeout": func(s AdmissionStats) int { return s.ShedQueueTimeout },
		"rate_limited":  func(s AdmissionStats) int { return s.ShedRateLimited },
	} {
		reg.CounterFunc("dash_admission_shed_total", "requests shed with 503 + Retry-After",
			func() uint64 { return uint64(field(p.AdmissionStats())) }, telemetry.Label{Name: "reason", Value: reason})
	}
	if p.breaker != nil {
		p.breaker.SetMetrics(reg)
	}
}

// Breaker exposes the wrapped breaker (nil when disabled).
func (p *Protection) Breaker() *Breaker { return p.breaker }

// AdmissionStats returns a snapshot of the admission counters.
func (p *Protection) AdmissionStats() AdmissionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ActiveSessions returns the number of sessions currently holding a slot.
func (p *Protection) ActiveSessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expireLocked(p.clock.Now())
	return len(p.sessions)
}

// clientKey identifies the requesting session: the client-stamped session
// header when present, otherwise the remote address (including port, so
// distinct unidentified connections are distinct clients rather than one
// shared bucket).
func clientKey(r *http.Request) string {
	if id := r.Header.Get(SessionIDHeader); id != "" {
		return id
	}
	if host, port, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host + ":" + port
	}
	return r.RemoteAddr
}

// expireLocked reclaims slots from sessions idle past SessionIdleSec.
func (p *Protection) expireLocked(now time.Time) {
	idle := Seconds(p.cfg.SessionIdleSec)
	for k, s := range p.sessions {
		if now.Sub(s.lastSeen) >= idle {
			delete(p.sessions, k)
		}
	}
}

// admitOutcome classifies one admission decision.
type admitOutcome int

const (
	admitOK admitOutcome = iota
	admitNoSlot
	admitRateLimited
)

// tryAdmit attempts to admit one request for key without waiting.
func (p *Protection) tryAdmit(key string) (admitOutcome, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return admitNoSlot, p.cfg.RetryAfterSec
	}
	now := p.clock.Now()
	s, ok := p.sessions[key]
	if !ok {
		p.expireLocked(now)
		if p.cfg.MaxSessions > 0 && len(p.sessions) >= p.cfg.MaxSessions {
			return admitNoSlot, p.cfg.RetryAfterSec
		}
		s = &session{lastSeen: now, tokens: p.cfg.SessionBurst, refilled: now}
		p.sessions[key] = s
		if n := len(p.sessions); n > p.stats.PeakSessions {
			p.stats.PeakSessions = n
		}
	}
	s.lastSeen = now
	if p.cfg.RatePerSessionPerSec > 0 {
		s.tokens += now.Sub(s.refilled).Seconds() * p.cfg.RatePerSessionPerSec
		s.refilled = now
		if s.tokens > p.cfg.SessionBurst {
			s.tokens = p.cfg.SessionBurst
		}
		if s.tokens < 1 {
			retry := (1 - s.tokens) / p.cfg.RatePerSessionPerSec
			return admitRateLimited, retry
		}
		s.tokens--
	}
	p.stats.Admitted++
	return admitOK, 0
}

// shedWith records a shed and answers it.
func (p *Protection) shedWith(w http.ResponseWriter, reason string, retrySec float64) {
	p.mu.Lock()
	switch reason {
	case "queue_full":
		p.stats.ShedQueueFull++
	case "queue_timeout":
		p.stats.ShedQueueTimeout++
	case "rate_limited":
		p.stats.ShedRateLimited++
	}
	p.mu.Unlock()
	WriteShed(w, retrySec, "overloaded: "+reason)
}

// Saturated reports whether the server should refuse new work: the session
// table is at its bound or the breaker is open.
func (p *Protection) Saturated() bool {
	if p.breaker != nil && p.breaker.State() == BreakerOpen {
		return true
	}
	if p.cfg.MaxSessions <= 0 {
		return false
	}
	return p.ActiveSessions() >= p.cfg.MaxSessions
}

// Handler returns the protected handler: health endpoints, then admission,
// then the (breaker-wrapped) inner handler.
func (p *Protection) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("ok\n"))
			return
		case "/readyz":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if p.Saturated() {
				w.WriteHeader(http.StatusServiceUnavailable)
				_, _ = w.Write([]byte("saturated\n"))
				return
			}
			_, _ = w.Write([]byte("ready\n"))
			return
		}
		p.mu.Lock()
		p.stats.Requests++
		p.mu.Unlock()
		key := clientKey(r)

		outcome, retrySec := p.tryAdmit(key)
		reason := "rate_limited"
		if outcome == admitNoSlot {
			outcome, reason, retrySec = p.waitForSlot(r, key)
		}
		if outcome != admitOK {
			p.shedWith(w, reason, retrySec)
			return
		}
		p.inflight.Add(1)
		defer p.inflight.Add(-1)
		p.inner.ServeHTTP(w, r)
	})
}

// waitForSlot queues a new session for an admission slot, polling on the
// injected clock until admission succeeds or the queue timeout elapses.
// It returns the final outcome with the shed reason and Retry-After hint
// for the non-admitted cases.
func (p *Protection) waitForSlot(r *http.Request, key string) (admitOutcome, string, float64) {
	if p.cfg.ShedImmediately {
		return admitNoSlot, "queue_full", p.cfg.RetryAfterSec
	}
	p.mu.Lock()
	if p.closed || p.waiting >= p.cfg.QueueDepth {
		p.mu.Unlock()
		return admitNoSlot, "queue_full", p.cfg.RetryAfterSec
	}
	p.waiting++
	// drain.Add happens under the same mutex Close holds while setting
	// closed, so no waiter can join the queue after Close started waiting.
	p.drain.Add(1)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.waiting--
		p.mu.Unlock()
		p.drain.Done()
	}()

	deadline := p.clock.Now().Add(Seconds(p.cfg.QueueTimeoutSec))
	for {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			// Close drained the queue: shed honestly so the client retries
			// against whatever replaces this server.
			return admitNoSlot, "queue_full", p.cfg.RetryAfterSec
		}
		if err := r.Context().Err(); err != nil {
			// The client gave up while queued; the response goes nowhere,
			// but the books stay balanced.
			return admitNoSlot, "queue_timeout", p.cfg.RetryAfterSec
		}
		outcome, retrySec := p.tryAdmit(key)
		if outcome != admitNoSlot {
			return outcome, "rate_limited", retrySec
		}
		if !p.clock.Now().Before(deadline) {
			return admitNoSlot, "queue_timeout", p.cfg.RetryAfterSec
		}
		p.clock.Sleep(admissionPollInterval)
	}
}

// Close marks the protection layer closed and drains the admission queue:
// every waiter parked in waitForSlot's poll loop is shed on its next poll,
// new arrivals are shed immediately, and Close blocks until the last
// queued goroutine has left. Idempotent; the idle-expiry sweep needs no
// separate stop because it is lazy (it runs inside tryAdmit and
// ActiveSessions, never on its own goroutine).
func (p *Protection) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.drain.Wait()
}
