package dash

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cava/internal/telemetry"
)

// Breaker tests drive every state transition on a FakeClock, so the
// open → half-open cool-down is pinned in virtual time with no sleeps.

// failNTimes returns a handler answering 503 for the first n requests and
// 200 afterwards.
func failNTimes(n int64) http.Handler {
	var served int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&served, 1) <= n {
			http.Error(w, "backend sad", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	})
}

func doReq(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 3, OpenSec: 5}, failNTimes(1<<30)).WithClock(fc)

	for i := 0; i < 3; i++ {
		w := doReq(t, b, "/seg/0/0")
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: code %d, want 503 from inner", i, w.Code)
		}
		if w.Header().Get("Retry-After") != "" {
			t.Fatalf("request %d passed through but carries Retry-After", i)
		}
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", st)
	}
	w := doReq(t, b, "/seg/0/1")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("short-circuit response = %d (Retry-After %q), want 503 with Retry-After",
			w.Code, w.Header().Get("Retry-After"))
	}
	st := b.Stats()
	if st.Opens != 1 || st.ShortCircuits != 1 || st.Failures != 3 {
		t.Fatalf("stats = %+v, want 1 open, 1 short-circuit, 3 failures", st)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	// Fail exactly enough to open, then recover.
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, OpenSec: 5}, failNTimes(2)).WithClock(fc)

	doReq(t, b, "/a")
	doReq(t, b, "/a")
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	// Still inside the cool-down: short-circuited.
	fc.Advance(4 * time.Second)
	if w := doReq(t, b, "/a"); w.Header().Get("Retry-After") == "" {
		t.Fatal("request inside cool-down was not short-circuited")
	}
	// Past the cool-down: the next request is a probe and succeeds.
	fc.Advance(2 * time.Second)
	if w := doReq(t, b, "/a"); w.Code != http.StatusOK {
		t.Fatalf("probe got %d, want 200", w.Code)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	st := b.Stats()
	if st.HalfOpens != 1 || st.Closes != 1 {
		t.Fatalf("stats = %+v, want 1 half-open and 1 close", st)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, OpenSec: 3}, failNTimes(1<<30)).WithClock(fc)

	doReq(t, b, "/a")
	doReq(t, b, "/a")
	fc.Advance(3 * time.Second)
	if w := doReq(t, b, "/a"); w.Header().Get("Retry-After") != "" {
		t.Fatal("probe was short-circuited instead of reaching the inner handler")
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open again", st)
	}
	if st := b.Stats(); st.Opens != 2 {
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
}

func TestBreakerAbortedHandlerCountsAsFailure(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	aborter := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, OpenSec: 5}, aborter).WithClock(fc)

	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("abort panic swallowed; net/http relies on it propagating")
				}
			}()
			doReq(t, b, "/a")
		}()
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after aborted handlers = %v, want open", st)
	}
}

// TestBreakerMetricsExposition walks a served breaker through every
// transition, then trips it and short-circuits through Allow, and checks
// that every series reads its BreakerStats field.
func TestBreakerMetricsExposition(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	reg := telemetry.NewRegistry()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 1, OpenSec: 5}, failNTimes(2)).WithClock(fc)
	b.SetMetrics(reg)
	doReq(t, b, "/a") // fails: closed → open
	doReq(t, b, "/a") // short-circuited by ServeHTTP
	fc.Advance(6 * time.Second)
	doReq(t, b, "/a") // half-open probe fails: → open
	fc.Advance(6 * time.Second)
	doReq(t, b, "/a") // probe succeeds: → closed
	b.Observe(false, true)
	if pass, _, _ := b.Allow(); pass {
		t.Fatal("open breaker admitted an attempt")
	}
	s := b.Stats()
	if s.Opens != 3 || s.HalfOpens != 2 || s.Closes != 1 || s.ShortCircuits != 2 || s.State != BreakerOpen {
		t.Fatalf("stats = %+v, want 3 opens, 2 half-opens, 1 close, 2 short circuits, open", s)
	}
	assertSeries(t, reg, map[string]int{
		"dash_breaker_state":                             int(s.State),
		`dash_breaker_transitions_total{to="closed"}`:    s.Closes,
		`dash_breaker_transitions_total{to="open"}`:      s.Opens,
		`dash_breaker_transitions_total{to="half_open"}`: s.HalfOpens,
		"dash_breaker_short_circuit_total":               s.ShortCircuits,
	})
}
