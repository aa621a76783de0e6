package dash

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cava/internal/abr"
	"cava/internal/chaos/leakcheck"
	"cava/internal/core"
	"cava/internal/player"
	"cava/internal/trace"
)

// Failure-injection tests: the client must fail loudly and promptly, never
// hang or return a half-session as success.

func TestClientManifestServerDown(t *testing.T) {
	// Reserve a port, then close it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c, err := NewClient(ClientConfig{BaseURL: "http://" + addr, NewAlgorithm: core.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Run(ctx); err == nil {
		t.Fatal("Run succeeded against a dead server")
	}
}

func TestClientBadManifest(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"video_id":"x","chunk_dur":0,"tracks":[]}`))
	}))
	defer srv.Close()
	c, _ := NewClient(ClientConfig{BaseURL: srv.URL, NewAlgorithm: core.Factory()})
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("Run accepted an invalid manifest")
	}
}

func TestClientManifestHTTPError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, _ := NewClient(ClientConfig{BaseURL: srv.URL, NewAlgorithm: core.Factory()})
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("Run accepted a 500 manifest response")
	}
}

func TestClientSegment404(t *testing.T) {
	v := testVideo()
	m := BuildManifest(v)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/manifest.json" {
			m.EncodeTo(w)
			return
		}
		http.NotFound(w, r) // every segment missing
	}))
	defer srv.Close()
	c, _ := NewClient(ClientConfig{BaseURL: srv.URL, NewAlgorithm: core.Factory(), MaxChunks: 3})
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("Run survived missing segments")
	}
}

func TestClientContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	v := testVideo()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A glacial link so the session cannot finish quickly.
	shaped := NewShapedListener(ln, NewShaper(trace.Constant("slow", 5e4, 1200, 1), 1))
	srv := NewHTTPServer(NewServer(v).Handler())
	go srv.Serve(shaped)
	defer srv.Close()

	c, _ := NewClient(ClientConfig{
		BaseURL:      "http://" + ln.Addr().String(),
		NewAlgorithm: core.Factory(),
		TimeScale:    1,
		MaxChunks:    5,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Run(ctx)
	if err == nil {
		t.Fatal("Run completed over a 50 kbps unscaled link in 300ms")
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("cancellation took %v; client not honoring context", time.Since(start))
	}
}

func TestShaperZeroScaleCoerced(t *testing.T) {
	s := NewShaper(trace.Constant("c", 1e6, 10, 1), 0)
	if s.TimeScale() != 1 {
		t.Errorf("scale = %v, want coerced 1", s.TimeScale())
	}
}

func TestVirtualNowAdvances(t *testing.T) {
	s := NewShaper(trace.Constant("c", 80e6, 10, 1), 50)
	if s.VirtualNow() != 0 {
		t.Error("virtual clock should be 0 before first Wait")
	}
	s.Wait(1000)
	time.Sleep(20 * time.Millisecond)
	if v := s.VirtualNow(); v <= 0 {
		t.Errorf("virtual clock did not advance: %v", v)
	}
}

// --- Resilient fetch pipeline ------------------------------------------------

// flakyOnce wraps a handler so the FIRST attempt at each segment path fails
// in a caller-chosen way; retries pass through.
type flakyOnce struct {
	inner http.Handler
	fail  func(w http.ResponseWriter, r *http.Request)

	mu   sync.Mutex
	seen map[string]int
}

func (f *flakyOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/seg/") {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	if f.seen == nil {
		f.seen = make(map[string]int)
	}
	attempt := f.seen[r.URL.Path]
	f.seen[r.URL.Path] = attempt + 1
	f.mu.Unlock()
	if attempt == 0 {
		f.fail(w, r)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// newResilientClient builds a resilient client with its timing-sensitive
// features off (short backoff, no per-attempt deadline, no abandonment),
// so only the behaviour under test is active.
func newResilientClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Resilient = true
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.policy.baseBackoffSec = 0.05
	c.policy.maxBackoffSec = 0.2
	c.policy.deadlineFactor = 0
	c.policy.abandon = false
	return c
}

// TestClientRetryThenSucceed: every segment's first attempt 503s. The
// fail-fast client aborts; the resilient client completes the session and
// records the retries.
func TestClientRetryThenSucceed(t *testing.T) {
	defer leakcheck.Check(t)()
	v := testVideo()
	fail503 := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected", http.StatusServiceUnavailable)
	}
	// Each client gets a fresh server: the first-attempt failure state is
	// per server, and the fail-fast run must not consume the resilient run's.
	srvA := httptest.NewServer(&flakyOnce{inner: NewServer(v).Handler(), fail: fail503})
	defer srvA.Close()
	fast, _ := NewClient(ClientConfig{BaseURL: srvA.URL, NewAlgorithm: core.Factory(), MaxChunks: 4})
	defer fast.Close()
	if _, err := fast.Run(context.Background()); err == nil {
		t.Fatal("fail-fast client survived a 503 first attempt; want abort")
	}

	srvB := httptest.NewServer(&flakyOnce{inner: NewServer(v).Handler(), fail: fail503})
	defer srvB.Close()
	c := newResilientClient(t, ClientConfig{
		BaseURL: srvB.URL, NewAlgorithm: core.Factory(), MaxChunks: 4, TimeScale: 20,
	})
	defer c.Close()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("resilient client aborted: %v", err)
	}
	if len(res.Chunks) != 4 {
		t.Fatalf("delivered %d chunks, want 4", len(res.Chunks))
	}
	if res.TotalRetries < 4 {
		t.Errorf("TotalRetries = %d, want ≥ 4 (one per segment)", res.TotalRetries)
	}
	if res.SkippedChunks != 0 {
		t.Errorf("SkippedChunks = %d, want 0", res.SkippedChunks)
	}
	for _, rec := range res.Chunks {
		if rec.Retries < 1 {
			t.Errorf("chunk %d recorded %d retries, want ≥ 1", rec.Index, rec.Retries)
		}
	}
}

// TestClientTruncationDetected: first attempt of each segment declares the
// full Content-Length but sends half. Both clients must refuse to count it
// as a success; the resilient one retries to completion.
func TestClientTruncationDetected(t *testing.T) {
	v := testVideo()
	truncate := func(w http.ResponseWriter, r *http.Request) {
		track, index, err := parseSegmentPath(r.URL.Path)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		full := int(v.ChunkSize(track, index)+7) / 8
		w.Header().Set("Content-Length", strconv.Itoa(full))
		pad := make([]byte, full/2)
		w.Write(pad) // short body; server closes the connection early
	}
	srvA := httptest.NewServer(&flakyOnce{inner: NewServer(v).Handler(), fail: truncate})
	defer srvA.Close()
	fast, _ := NewClient(ClientConfig{BaseURL: srvA.URL, NewAlgorithm: core.Factory(), MaxChunks: 2})
	if _, err := fast.Run(context.Background()); err == nil {
		t.Fatal("fail-fast client accepted a truncated body as success")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("fail-fast error does not identify truncation: %v", err)
	}

	srvB := httptest.NewServer(&flakyOnce{inner: NewServer(v).Handler(), fail: truncate})
	defer srvB.Close()
	c := newResilientClient(t, ClientConfig{
		BaseURL: srvB.URL, NewAlgorithm: core.Factory(), MaxChunks: 3, TimeScale: 20,
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("resilient client aborted: %v", err)
	}
	if res.TotalTruncations < 3 {
		t.Errorf("TotalTruncations = %d, want ≥ 3", res.TotalTruncations)
	}
	if res.SkippedChunks != 0 {
		t.Errorf("SkippedChunks = %d, want 0", res.SkippedChunks)
	}
	// The delivered sizes must be the full declared sizes, not the
	// truncated halves.
	for _, rec := range res.Chunks {
		want := float64(int(v.ChunkSize(rec.Level, rec.Index)+7)/8) * 8
		if rec.SizeBits != want {
			t.Errorf("chunk %d delivered %v bits, want %v", rec.Index, rec.SizeBits, want)
		}
	}
}

// TestClientOutageDegradation: an outage window at session start exhausts
// retries for the first segments; the client skips them (accounting the
// gap as stall) and recovers when the window lifts.
func TestClientOutageDegradation(t *testing.T) {
	defer leakcheck.Check(t)()
	const scale = 50
	v := testVideo()
	inj := NewFaultInjector(FaultConfig{
		Outages:      []OutageWindow{{StartSec: 0, EndSec: 3}},
		TimeScale:    scale,
		SegmentsOnly: true,
	}, NewServer(v).Handler())
	srv := httptest.NewServer(inj)
	defer srv.Close()

	c := newResilientClient(t, ClientConfig{
		BaseURL: srv.URL, NewAlgorithm: core.Factory(), MaxChunks: 10, TimeScale: scale,
	})
	c.policy.maxRetries = 2
	defer c.Close()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("session aborted under outage: %v", err)
	}
	if res.SkippedChunks == 0 {
		t.Fatal("no chunks skipped across a 3-virtual-second outage")
	}
	if res.SkippedChunks == len(res.Chunks) {
		t.Fatal("every chunk skipped; client never recovered after the outage")
	}
	if len(res.Chunks) != 10 {
		t.Fatalf("session recorded %d chunks, want 10 (skips included)", len(res.Chunks))
	}
	// Each skip accounts one segment duration of stall.
	m := BuildManifest(v)
	minStall := float64(res.SkippedChunks) * m.ChunkDurSec
	if res.TotalRebufferSec < minStall-1e-9 {
		t.Errorf("TotalRebufferSec = %v, want ≥ %v (skip gaps)", res.TotalRebufferSec, minStall)
	}
	skipped := 0
	for _, rec := range res.Chunks {
		if rec.Skipped {
			skipped++
			if rec.SizeBits != 0 || rec.ThroughputBps != 0 {
				t.Errorf("skipped chunk %d carries download stats", rec.Index)
			}
		}
	}
	if skipped != res.SkippedChunks {
		t.Errorf("per-chunk skips %d != SkippedChunks %d", skipped, res.SkippedChunks)
	}
}

// TestClientAbandonmentDownshift: a track that dribbles bytes too slowly to
// finish before the buffer drains is abandoned mid-download and refetched
// one level lower.
func TestClientAbandonmentDownshift(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const scale = 60
	v := testVideo()
	top := v.NumTracks() - 1
	inner := NewServer(v).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		track, index, err := parseSegmentPath(r.URL.Path)
		if err != nil || track != top || index == 0 {
			inner.ServeHTTP(w, r)
			return
		}
		// Top track past startup: send a taste fast, then dribble.
		full := int(v.ChunkSize(track, index)+7) / 8
		w.Header().Set("Content-Length", strconv.Itoa(full))
		head := 20 << 10
		if head > full {
			head = full
		}
		w.Write(make([]byte, head))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		for sent := head; sent < full; sent += 1 << 10 {
			time.Sleep(100 * time.Millisecond)
			if _, err := w.Write(make([]byte, 1<<10)); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	c := newResilientClient(t, ClientConfig{
		BaseURL: srv.URL, NewAlgorithm: abr.Fixed(top), MaxChunks: 2,
		TimeScale: scale, StartupSec: 1,
	})
	c.policy.abandon = true
	c.policy.abandonCheckBytes = 8 << 10
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("session aborted: %v", err)
	}
	if res.TotalAbandonments == 0 {
		t.Fatal("slow top-track segment was never abandoned")
	}
	rec := res.Chunks[1]
	if rec.Abandonments == 0 || rec.Level >= top {
		t.Errorf("chunk 1: abandonments %d, level %d; want a downshift below %d",
			rec.Abandonments, rec.Level, top)
	}
	if res.WastedBits <= 0 {
		t.Error("abandoned partial download recorded no wasted bits")
	}
}

// TestClientFaultDeterminism: identical fault seeds yield identical
// resilience counters across independent runs — the acceptance criterion
// that makes failure testing reproducible. The level is pinned (fixed
// algorithm, no deadlines, no abandonment) so the request sequence is
// timing-independent; the guarantee is that for a given request sequence
// the injected faults are a pure function of the seed.
func TestClientFaultDeterminism(t *testing.T) {
	run := func() *player.Result {
		v := testVideo()
		inj := NewFaultInjector(FaultConfig{
			Seed:         42,
			ErrorProb:    0.25,
			TruncateProb: 0.15,
			SegmentsOnly: true,
		}, NewServer(v).Handler())
		srv := httptest.NewServer(inj)
		defer srv.Close()

		c := newResilientClient(t, ClientConfig{
			BaseURL: srv.URL, NewAlgorithm: abr.Fixed(1), MaxChunks: 15, TimeScale: 20,
		})
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("seeded-fault session aborted: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalRetries == 0 && a.TotalTruncations == 0 {
		t.Fatal("fault profile injected nothing; determinism test is vacuous")
	}
	if a.TotalRetries != b.TotalRetries ||
		a.TotalTruncations != b.TotalTruncations ||
		a.TotalAbandonments != b.TotalAbandonments ||
		a.SkippedChunks != b.SkippedChunks {
		t.Errorf("identical seeds diverged: run1 {retries %d, trunc %d, abandon %d, skip %d} vs run2 {retries %d, trunc %d, abandon %d, skip %d}",
			a.TotalRetries, a.TotalTruncations, a.TotalAbandonments, a.SkippedChunks,
			b.TotalRetries, b.TotalTruncations, b.TotalAbandonments, b.SkippedChunks)
	}
	if len(a.Chunks) != len(b.Chunks) {
		t.Errorf("chunk counts diverged: %d vs %d", len(a.Chunks), len(b.Chunks))
	}
}

// TestShaperConcurrentWait: many goroutines share one shaper (one
// bottleneck link); all must make progress and the token accounting must be
// race-free (run under -race).
func TestShaperConcurrentWait(t *testing.T) {
	s := NewShaper(trace.Constant("c", 8e6, 60, 1), 100)
	const workers = 8
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Wait(1 << 10)
				_ = s.VirtualNow()
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Wait deadlocked or starved")
	}
	if s.VirtualNow() <= 0 {
		t.Error("virtual clock did not advance under concurrent use")
	}
}
