package dash

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cava/internal/telemetry"
)

// Admission-control tests pin every behaviour on a FakeClock: queue
// timeouts, idle-session expiry and token-bucket refill all resolve in
// virtual time, so the tests are exact and sleep-free.

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
}

// reqAs issues a request carrying the given session identity.
func reqAs(t *testing.T, h http.Handler, session, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	if session != "" {
		r.Header.Set(SessionIDHeader, session)
	}
	h.ServeHTTP(w, r)
	return w
}

func TestAdmissionSessionLimitQueueTimeout(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	p := Protect(ProtectionConfig{
		MaxSessions:     1,
		QueueTimeoutSec: 0.05,
		SessionIdleSec:  100,
		RetryAfterSec:   2,
	}, okHandler()).WithClock(fc)
	h := p.Handler()

	if w := reqAs(t, h, "alice", "/manifest.json"); w.Code != http.StatusOK {
		t.Fatalf("first session got %d, want 200", w.Code)
	}
	// A second session queues, the clock advances through the polls, the
	// queue times out, and the request is shed with the Retry-After hint.
	w := reqAs(t, h, "bob", "/manifest.json")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second session got %d, want 503", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}
	st := p.AdmissionStats()
	if st.Admitted != 1 || st.ShedQueueTimeout != 1 || st.ShedTotal() != 1 {
		t.Fatalf("stats = %+v, want 1 admitted and 1 queue-timeout shed", st)
	}
	// The established session keeps streaming while the other is shed.
	if w := reqAs(t, h, "alice", "/seg/0/0"); w.Code != http.StatusOK {
		t.Fatalf("established session got %d after shed, want 200", w.Code)
	}
}

func TestAdmissionSlotFreesAfterIdleExpiry(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	p := Protect(ProtectionConfig{
		MaxSessions:     1,
		ShedImmediately: true,
		SessionIdleSec:  10,
	}, okHandler()).WithClock(fc)
	h := p.Handler()

	reqAs(t, h, "alice", "/manifest.json")
	if w := reqAs(t, h, "bob", "/manifest.json"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second session got %d while saturated, want 503", w.Code)
	}
	if got := p.ActiveSessions(); got != 1 {
		t.Fatalf("active sessions = %d, want 1", got)
	}
	// After the idle window the dead session's slot is reclaimed.
	fc.Advance(11 * time.Second)
	if w := reqAs(t, h, "bob", "/manifest.json"); w.Code != http.StatusOK {
		t.Fatalf("session after expiry got %d, want 200", w.Code)
	}
	st := p.AdmissionStats()
	if st.ShedQueueFull != 1 || st.Admitted != 2 || st.PeakSessions != 1 {
		t.Fatalf("stats = %+v, want 1 queue-full shed, 2 admitted, peak 1", st)
	}
}

func TestAdmissionRateLimitTokenBucket(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	p := Protect(ProtectionConfig{
		RatePerSessionPerSec: 1,
		SessionBurst:         2,
	}, okHandler()).WithClock(fc)
	h := p.Handler()

	for i := 0; i < 2; i++ {
		if w := reqAs(t, h, "alice", "/seg/0/0"); w.Code != http.StatusOK {
			t.Fatalf("burst request %d got %d, want 200", i, w.Code)
		}
	}
	w := reqAs(t, h, "alice", "/seg/0/1")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("over-rate request = %d (Retry-After %q), want 503 with Retry-After",
			w.Code, w.Header().Get("Retry-After"))
	}
	// Another session has its own bucket.
	if w := reqAs(t, h, "bob", "/seg/0/0"); w.Code != http.StatusOK {
		t.Fatalf("other session got %d, want 200", w.Code)
	}
	// One virtual second refills one token.
	fc.Advance(time.Second)
	if w := reqAs(t, h, "alice", "/seg/0/2"); w.Code != http.StatusOK {
		t.Fatalf("request after refill got %d, want 200", w.Code)
	}
	if st := p.AdmissionStats(); st.ShedRateLimited != 1 {
		t.Fatalf("stats = %+v, want 1 rate-limited shed", st)
	}
}

func TestAdmissionQueueDepthBound(t *testing.T) {
	// Two sessions contend for a saturated server whose queue admits one
	// waiter: one waits out the (real-clock) timeout, the other is bounced
	// for queue depth. Both are shed; the split depends on scheduling.
	p := Protect(ProtectionConfig{
		MaxSessions:     1,
		QueueDepth:      1,
		QueueTimeoutSec: 0.02,
		SessionIdleSec:  100,
	}, okHandler())
	h := p.Handler()
	reqAs(t, h, "alice", "/manifest.json")

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i, s := range []string{"bob", "carol"} {
		wg.Add(1)
		go func(i int, s string) {
			defer wg.Done()
			codes[i] = reqAs(t, h, s, "/manifest.json").Code
		}(i, s)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusServiceUnavailable {
			t.Fatalf("contender %d got %d, want 503", i, c)
		}
	}
	if st := p.AdmissionStats(); st.ShedTotal() != 2 {
		t.Fatalf("stats = %+v, want both contenders shed", st)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	bcfg := BreakerConfig{ConsecutiveFailures: 1, OpenSec: 5}
	p := Protect(ProtectionConfig{
		MaxSessions:     1,
		ShedImmediately: true,
		SessionIdleSec:  100,
		Breaker:         &bcfg,
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "sad", http.StatusServiceUnavailable)
	})).WithClock(fc)
	h := p.Handler()

	if w := reqAs(t, h, "", "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", w.Code)
	}
	if w := reqAs(t, h, "", "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz before load = %d, want 200", w.Code)
	}
	// One failing request both fills the session table and opens the
	// breaker; readiness must drop on either count.
	reqAs(t, h, "alice", "/seg/0/0")
	if w := reqAs(t, h, "", "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while saturated = %d, want 503", w.Code)
	}
	if !p.Saturated() {
		t.Fatal("Saturated() = false with a full table and an open breaker")
	}
	// Health stays green regardless: the process is alive.
	if w := reqAs(t, h, "", "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz under load = %d, want 200", w.Code)
	}
}

func TestClientKeyFallsBackToRemoteAddr(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/manifest.json", nil)
	r.RemoteAddr = "10.1.2.3:4567"
	if got := clientKey(r); got != "10.1.2.3:4567" {
		t.Fatalf("clientKey = %q, want remote addr", got)
	}
	r.Header.Set(SessionIDHeader, "sess-7")
	if got := clientKey(r); got != "sess-7" {
		t.Fatalf("clientKey = %q, want header value", got)
	}
}

// TestProtectionMetricsExposition sheds one request for each reason and
// checks the series against AdmissionStats, then that a scrape does not
// expire idle sessions.
func TestProtectionMetricsExposition(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	reg := telemetry.NewRegistry()
	p := Protect(ProtectionConfig{
		MaxSessions: 1, QueueTimeoutSec: 1, SessionIdleSec: 100,
		RatePerSessionPerSec: 1, SessionBurst: 1,
	}, okHandler()).WithClock(fc)
	p.SetMetrics(reg)
	h := p.Handler()
	reqAs(t, h, "alice", "/a") // admitted
	reqAs(t, h, "alice", "/b") // bucket empty: rate_limited
	reqAs(t, h, "bob", "/a")   // no slot, waits 1 virtual second: queue_timeout

	fc.Advance(200 * time.Second) // alice is now idle past SessionIdleSec
	s := p.AdmissionStats()
	if s.Admitted != 1 || s.ShedRateLimited != 1 || s.ShedQueueTimeout != 1 {
		t.Fatalf("stats = %+v, want 1 admitted, 1 rate-limited, 1 queue timeout", s)
	}
	assertSeries(t, reg, map[string]int{
		"dash_admission_active_sessions":                    1,
		"dash_admission_waiting_sessions":                   0,
		"dash_admission_inflight_requests":                  0,
		"dash_admission_admitted_total":                     s.Admitted,
		`dash_admission_shed_total{reason="queue_full"}`:    s.ShedQueueFull,
		`dash_admission_shed_total{reason="queue_timeout"}`: s.ShedQueueTimeout,
		`dash_admission_shed_total{reason="rate_limited"}`:  s.ShedRateLimited,
	})
	if n := p.ActiveSessions(); n != 0 {
		t.Errorf("ActiveSessions = %d, want 0: the session the scrape left in place is past its idle window", n)
	}

	p.Close()
	reqAs(t, h, "carol", "/a") // closed: queue_full
	if got := scrape(t, reg)[`dash_admission_shed_total{reason="queue_full"}`]; got != 1 {
		t.Errorf("queue_full sheds = %v, want 1", got)
	}
}

// TestProtectionDefaultsDefinedOnce pins that withDefaults fills zero
// fields from DefaultProtection and switches on no mechanism.
func TestProtectionDefaultsDefinedOnce(t *testing.T) {
	d := DefaultProtection(0)
	want := d
	want.RatePerSessionPerSec, want.SessionBurst, want.Breaker = 0, 0, nil
	if got := (ProtectionConfig{}).withDefaults(); got != want {
		t.Errorf("zero config filled to %+v, want %+v", got, want)
	}
	if got := (ProtectionConfig{RatePerSessionPerSec: 1}).withDefaults().SessionBurst; got != d.SessionBurst {
		t.Errorf("default burst = %v, want DefaultProtection's %v", got, d.SessionBurst)
	}
}
