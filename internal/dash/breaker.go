package dash

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cava/internal/telemetry"
)

// Breaker is a circuit breaker for the shaper/fault path: when the inner
// handler (the fault injector in front of the segment server) keeps
// failing — 5xx responses or aborted connections — the breaker opens and
// answers 503 + Retry-After immediately instead of burning a shaped-link
// slot on a request that is going to fail anyway. After a cool-down it
// half-opens and lets one probe request through at a time; a probe
// success closes the circuit, a probe failure re-opens it.
//
// The state machine is the textbook three-state breaker:
//
//	closed ──(ConsecutiveFailures failures in a row)──▶ open
//	open ──(OpenSec elapsed)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open
//
// All time flows through the injected Clock, so tests pin every transition
// with a FakeClock. The zero-value config disables nothing by accident:
// use DefaultBreakerConfig for the standard policy.
type BreakerConfig struct {
	// ConsecutiveFailures is how many back-to-back inner failures trip the
	// breaker (default 8).
	ConsecutiveFailures int
	// OpenSec is the cool-down in wall seconds before the open breaker
	// half-opens (default 2).
	OpenSec float64
}

// halfOpenProbes is how many concurrent probe requests the half-open
// state admits.
const halfOpenProbes = 1

// DefaultBreakerConfig returns the standard breaker policy.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{ConsecutiveFailures: 8, OpenSec: 2}
}

// withDefaults fills zero fields with the standard policy values.
func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = d.ConsecutiveFailures
	}
	if c.OpenSec <= 0 {
		c.OpenSec = d.OpenSec
	}
	return c
}

// BreakerState is the breaker's position in the state machine.
type BreakerState int

const (
	// BreakerClosed passes requests through (healthy path).
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every request with 503 + Retry-After.
	BreakerOpen
	// BreakerHalfOpen admits one probe at a time.
	BreakerHalfOpen
)

// String renders the state for metrics labels and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// BreakerStats is a snapshot of the breaker's counters.
type BreakerStats struct {
	// State is the current state.
	State BreakerState
	// Opens, HalfOpens and Closes count state transitions.
	Opens     int
	HalfOpens int
	Closes    int
	// ShortCircuits counts requests answered 503 without reaching the
	// inner handler.
	ShortCircuits int
	// Failures and Successes count inner-handler outcomes observed.
	Failures  int
	Successes int
}

// Breaker wraps an inner handler with the circuit-breaker policy. It is
// safe for concurrent use.
type Breaker struct {
	cfg   BreakerConfig
	inner http.Handler
	clock Clock

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probes      int // in-flight probes while half-open
	stats       BreakerStats
}

// NewBreaker wraps inner with the breaker policy.
func NewBreaker(cfg BreakerConfig, inner http.Handler) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), inner: inner, clock: RealClock()}
}

// NewOriginBreaker returns a breaker for client-side (outbound) use: there
// is no inner handler, so it never serves HTTP itself. Callers gate each
// outbound attempt with Allow and report the outcome with Observe; the
// edge tier keeps one per origin so a dead replica is skipped immediately
// and recovery is probed with bounded concurrency.
func NewOriginBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), clock: RealClock()}
}

// WithClock substitutes the breaker's clock (tests use a FakeClock). Call
// before serving.
func (b *Breaker) WithClock(c Clock) *Breaker {
	b.clock = realClockOr(c)
	return b
}

// SetMetrics exposes the breaker's Stats on reg (nil disables). Scraping
// reads Stats, never State, so it cannot move an open breaker to
// half-open.
func (b *Breaker) SetMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("dash_breaker_state", "circuit-breaker state (0 closed, 1 open, 2 half-open)",
		func() float64 { return float64(b.Stats().State) })
	for to, field := range map[BreakerState]func(BreakerStats) int{
		BreakerClosed:   func(s BreakerStats) int { return s.Closes },
		BreakerOpen:     func(s BreakerStats) int { return s.Opens },
		BreakerHalfOpen: func(s BreakerStats) int { return s.HalfOpens },
	} {
		reg.CounterFunc("dash_breaker_transitions_total", "circuit-breaker state transitions",
			func() uint64 { return uint64(field(b.Stats())) }, telemetry.Label{Name: "to", Value: to.String()})
	}
	reg.CounterFunc("dash_breaker_short_circuit_total", "requests answered 503 by the open breaker",
		func() uint64 { return uint64(b.Stats().ShortCircuits) })
}

// Stats returns a snapshot of the breaker's counters and current state.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.State = b.state
	return s
}

// State returns the current state (advancing open → half-open if the
// cool-down has elapsed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

// transitionLocked moves to the target state and records the transition.
func (b *Breaker) transitionLocked(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.stats.Opens++
		b.openedAt = b.clock.Now()
	case BreakerHalfOpen:
		b.stats.HalfOpens++
		b.probes = 0
	case BreakerClosed:
		b.stats.Closes++
		b.consecFails = 0
	}
}

// advanceLocked applies the time-driven open → half-open transition.
func (b *Breaker) advanceLocked() {
	if b.state == BreakerOpen &&
		b.clock.Now().Sub(b.openedAt).Seconds() >= b.cfg.OpenSec {
		b.transitionLocked(BreakerHalfOpen)
	}
}

// Allow reports whether a request or outbound attempt may proceed. When
// pass is false it must be skipped; retryAfterSec is the remaining
// cool-down to advertise. When probe is true the breaker is half-open and
// this attempt is one of its bounded probes — the caller MUST report the
// outcome via Observe with the same probe flag.
func (b *Breaker) Allow() (pass, probe bool, retryAfterSec float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case BreakerClosed:
		return true, false, 0
	case BreakerHalfOpen:
		if b.probes < halfOpenProbes {
			b.probes++
			return true, true, 0
		}
		b.stats.ShortCircuits++
		return false, false, b.cfg.OpenSec
	default: // BreakerOpen
		b.stats.ShortCircuits++
		remain := b.cfg.OpenSec - b.clock.Now().Sub(b.openedAt).Seconds()
		if remain < 0 {
			remain = 0
		}
		return false, false, remain
	}
}

// Observe records the outcome of an attempt admitted by Allow, driving the
// closed/open/half-open state machine.
func (b *Breaker) Observe(probe, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probes--
	}
	if failed {
		b.stats.Failures++
		b.consecFails++
		if b.state == BreakerHalfOpen ||
			(b.state == BreakerClosed && b.consecFails >= b.cfg.ConsecutiveFailures) {
			b.transitionLocked(BreakerOpen)
		}
		return
	}
	b.stats.Successes++
	b.consecFails = 0
	if b.state == BreakerHalfOpen {
		b.transitionLocked(BreakerClosed)
	}
}

// statusWriter captures the response status so the breaker can classify
// the inner handler's outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// ServeHTTP implements http.Handler.
func (b *Breaker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	pass, probe, retrySec := b.Allow()
	if !pass {
		WriteShed(w, retrySec, "overloaded: circuit open")
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	panicked := true
	defer func() {
		failed := panicked || sw.status >= http.StatusInternalServerError
		b.Observe(probe, failed)
	}()
	b.inner.ServeHTTP(sw, r)
	panicked = false
}

// WriteShed answers a shed request: 503 with the given body and a
// Retry-After hint in whole seconds, rounded up, at least 1. It is the
// contract the resilient client's backoff understands, shared by the
// origin's overload protection and the edge.
func WriteShed(w http.ResponseWriter, retryAfterSec float64, body string) {
	sec := int(retryAfterSec + 0.999) // ceil; Retry-After is whole seconds
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	http.Error(w, body, http.StatusServiceUnavailable)
}
