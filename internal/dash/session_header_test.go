package dash

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cava/internal/core"
	"cava/internal/telemetry"
)

// scriptedTransport is a counting RoundTripper: it records the path and
// X-Session-Id of every attempt the client makes, sheds the first
// shedFirst requests with 503 + Retry-After, 503s the first segment
// request once (no hint), and serves everything else from the wrapped
// handler in-process.
type scriptedTransport struct {
	inner http.Handler

	mu        sync.Mutex
	calls     int
	shedFirst int
	segFailed bool
	sessions  []string
	paths     []string
}

func (st *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st.mu.Lock()
	st.calls++
	st.sessions = append(st.sessions, req.Header.Get(SessionIDHeader))
	st.paths = append(st.paths, req.URL.Path)
	shed := st.calls <= st.shedFirst
	segFail := false
	if !shed && !st.segFailed && strings.Contains(req.URL.Path, "/seg/") {
		st.segFailed = true
		segFail = true
	}
	st.mu.Unlock()

	rec := httptest.NewRecorder()
	switch {
	case shed:
		rec.Header().Set("Retry-After", "1")
		http.Error(rec, "overloaded", http.StatusServiceUnavailable)
	case segFail:
		http.Error(rec, "transient", http.StatusServiceUnavailable)
	default:
		st.inner.ServeHTTP(rec, req)
	}
	return rec.Result(), nil
}

// attempts returns copies of the recorded per-attempt sessions and paths.
func (st *scriptedTransport) attempts() (sessions, paths []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.sessions...), append([]string(nil), st.paths...)
}

// TestSessionHeaderOnEveryAttempt is the satellite regression pin: the
// client must stamp X-Session-Id on EVERY attempt — first tries and each
// retry after a failure — because server-side admission control keys on
// it; an unstamped retry would be admitted as a brand-new session. The
// scripted transport sheds the first manifest attempt with Retry-After: 1
// and one segment attempt with a plain 503, so the recorded attempt log
// covers both retry shapes.
func TestSessionHeaderOnEveryAttempt(t *testing.T) {
	v := testVideo()
	st := &scriptedTransport{inner: NewServer(v).Handler(), shedFirst: 1}
	reg := telemetry.NewRegistry()
	c, err := NewClient(ClientConfig{
		BaseURL:      "http://origin.test",
		HTTPClient:   &http.Client{Transport: st},
		NewAlgorithm: core.Factory(),
		TimeScale:    200,
		MaxChunks:    4,
		Resilient:    true,
		JitterSeed:   11,
		SessionID:    "regress-7",
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Only the retry paths are under test: no wall-clock deadline or
	// abandonment.
	c.policy.deadlineFactor = 0
	c.policy.abandon = false

	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SkippedChunks != 0 {
		t.Errorf("session skipped %d chunks; the single 503 should be retried away",
			res.SkippedChunks)
	}

	sessions, paths := st.attempts()
	if len(sessions) < 4+2 { // 4 segments + 1 shed manifest attempt + 1 retried manifest
		t.Fatalf("transport saw only %d attempts: %v", len(sessions), paths)
	}
	for i, s := range sessions {
		if s != "regress-7" {
			t.Errorf("attempt %d (%s) carried session %q, want regress-7", i, paths[i], s)
		}
	}
	if !st.segFailed {
		t.Error("scripted segment failure never triggered; retry path untested")
	}

	// The shed manifest attempt carried Retry-After: 1 (wall second); the
	// resilient retry must honor it as a floor, which is observable both in
	// wall time and on the counter.
	if got := reg.Counter("dash_client_retry_after_waits_total", "").Value(); got != 1 {
		t.Errorf("dash_client_retry_after_waits_total = %d, want 1", got)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("session finished in %v; a 1s Retry-After hint was not honored", elapsed)
	}
}

// TestRetryWaitFullJitter pins the backoff shape: seeded FULL jitter over
// the capped exponential — uniform in [0, cap), reproducible per seed —
// rather than the lockstep-prone half-jitter.
func TestRetryWaitFullJitter(t *testing.T) {
	mk := func(seed int64) *fetcher {
		return &fetcher{
			c:     &Client{},
			p:     resilient,
			rng:   rand.New(rand.NewSource(seed)),
			scale: 1,
		}
	}
	f := mk(3)
	base, max := f.p.baseBackoffSec, f.p.maxBackoffSec
	lo, hi := base, 0.0
	for i := 0; i < 500; i++ {
		w := f.retryWait(0, 0)
		if w < 0 || w >= base {
			t.Fatalf("retryWait(0) = %v outside [0, %v)", w, base)
		}
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	// Full jitter covers the whole window; half jitter would never go
	// below base/2.
	if lo > 0.1*base || hi < 0.9*base {
		t.Errorf("500 samples span [%v, %v]; want full [0, %v) coverage", lo, hi, base)
	}
	for r := 0; r < 12; r++ {
		if w := f.retryWait(r, 0); w >= max {
			t.Errorf("retryWait(%d) = %v >= cap %v", r, w, max)
		}
	}
	// Same seed, same schedule: the sweep cache depends on this.
	a, b := mk(42), mk(42)
	for i := 0; i < 20; i++ {
		if wa, wb := a.retryWait(i%4, 0), b.retryWait(i%4, 0); wa != wb {
			t.Fatalf("seeded schedules diverge at draw %d: %v vs %v", i, wa, wb)
		}
	}
}

// TestRetryWaitHonorsRetryAfterFloor pins the server-paced arm: a hint of
// h wall seconds floors the wait at h×TimeScale virtual seconds (which
// sleepVirtual converts back to exactly h wall seconds).
func TestRetryWaitHonorsRetryAfterFloor(t *testing.T) {
	f := &fetcher{
		c:     &Client{},
		p:     resilient,
		rng:   rand.New(rand.NewSource(5)),
		scale: 40,
	}
	for i := 0; i < 50; i++ {
		if w := f.retryWait(0, 2); w < 2*40 {
			t.Fatalf("retryWait with 2s hint = %v virtual sec, want >= %v", w, 2*40)
		}
	}
	if w := f.retryWait(0, 0); w >= f.p.baseBackoffSec {
		t.Errorf("hint-less retryWait = %v, want plain jittered backoff", w)
	}
}

// TestParseRetryAfterSec covers the header grammar the testbed emits.
func TestParseRetryAfterSec(t *testing.T) {
	cases := []struct {
		value string
		want  float64
	}{
		{"", 0}, {"3", 3}, {"0", 0}, {"-2", 0}, {"soon", 0}, {"1.5", 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.value != "" {
			h.Set("Retry-After", tc.value)
		}
		if got := parseRetryAfterSec(h); got != tc.want {
			t.Errorf("parseRetryAfterSec(%q) = %v, want %v", tc.value, got, tc.want)
		}
	}
}
