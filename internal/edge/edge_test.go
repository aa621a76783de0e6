package edge

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cava/internal/dash"
	"cava/internal/telemetry"
)

// testOrigin is one controllable fake origin: it counts requests, records
// the session header of each, and fails on demand.
type testOrigin struct {
	srv      *httptest.Server
	requests atomic.Int64
	failing  atomic.Bool
	version  atomic.Int64

	mu       sync.Mutex
	sessions []string
}

// newTestOrigin starts a fake origin serving "o<idx>:v<version>" bodies for
// every path (with Content-Type text/test), 500s while failing is set.
func newTestOrigin(t *testing.T, idx int) *testOrigin {
	t.Helper()
	o := &testOrigin{}
	o.version.Store(1)
	o.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.requests.Add(1)
		o.mu.Lock()
		o.sessions = append(o.sessions, r.Header.Get(dash.SessionIDHeader))
		o.mu.Unlock()
		if o.failing.Load() {
			http.Error(w, "injected origin failure", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/test")
		fmt.Fprintf(w, "o%d:v%d", idx, o.version.Load())
	}))
	t.Cleanup(o.srv.Close)
	return o
}

// sessionsSeen returns a copy of the recorded session headers.
func (o *testOrigin) sessionsSeen() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.sessions...)
}

// newTestEdge builds an edge over the given origins with a FakeClock and
// registers its metrics.
func newTestEdge(t *testing.T, cfg Config, origins ...*testOrigin) (*Edge, *dash.FakeClock, *telemetry.Registry) {
	t.Helper()
	clock := dash.NewFakeClock(time.Unix(1000, 0))
	for _, o := range origins {
		cfg.Origins = append(cfg.Origins, o.srv.URL)
	}
	cfg.Clock = clock
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	reg := telemetry.NewRegistry()
	e.SetMetrics(reg)
	return e, clock, reg
}

// get performs one request against the edge handler and returns the
// recorded response.
func get(e *Edge, path, session string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if session != "" {
		req.Header.Set(dash.SessionIDHeader, session)
	}
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, req)
	return rec
}

// waitFor polls cond (real time; the condition is completion of a
// background goroutine, not virtual-clock progress).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEdgeManifestSWR drives the stale-while-revalidate state machine
// through all four arms on a FakeClock: fresh hit, stale + background
// refresh, fresh-after-refresh, and hard-expired synchronous fetch.
func TestEdgeManifestSWR(t *testing.T) {
	origin := newTestOrigin(t, 0)
	e, clock, _ := newTestEdge(t, Config{
		VideoID:            "vid",
		ManifestSoftTTLSec: 1,
		ManifestHardTTLSec: 10,
	}, origin)

	// Cold: synchronous fetch.
	if rec := get(e, "/manifest.json", "s1"); rec.Code != 200 || rec.Body.String() != "o0:v1" {
		t.Fatalf("cold manifest = %d %q", rec.Code, rec.Body.String())
	}
	if n := origin.requests.Load(); n != 1 {
		t.Fatalf("origin requests after cold fetch = %d", n)
	}

	// Within the soft TTL: served from cache, origin untouched.
	if rec := get(e, "/manifest.json", "s1"); rec.Code != 200 || rec.Body.String() != "o0:v1" {
		t.Fatalf("fresh manifest = %d %q", rec.Code, rec.Body.String())
	}
	if n := origin.requests.Load(); n != 1 {
		t.Fatalf("fresh hit reached the origin (%d requests)", n)
	}

	// Past the soft TTL: the stale body is served NOW and a background
	// refresh picks up the origin's new version.
	origin.version.Store(2)
	clock.Advance(2 * time.Second)
	if rec := get(e, "/manifest.json", "s1"); rec.Code != 200 || rec.Body.String() != "o0:v1" {
		t.Fatalf("stale manifest = %d %q, want the old body immediately", rec.Code, rec.Body.String())
	}
	if got := e.Stats().StaleServed; got != 1 {
		t.Fatalf("StaleServed = %d, want 1", got)
	}
	waitFor(t, "background refresh", func() bool { return e.Stats().Refreshes == 1 })
	if rec := get(e, "/manifest.json", "s1"); rec.Body.String() != "o0:v2" {
		t.Fatalf("post-refresh manifest = %q, want the refreshed body", rec.Body.String())
	}

	// Past the hard TTL: stale is refused, the fetch is synchronous.
	origin.version.Store(3)
	clock.Advance(20 * time.Second)
	before := origin.requests.Load()
	if rec := get(e, "/manifest.json", "s1"); rec.Body.String() != "o0:v3" {
		t.Fatalf("hard-expired manifest = %q, want a synchronous refetch", rec.Body.String())
	}
	if n := origin.requests.Load(); n != before+1 {
		t.Fatalf("hard-expired fetch made %d origin requests, want 1", n-before)
	}

	s := e.Stats()
	if s.Hits < 2 || s.Misses < 2 || s.StaleServed != 1 || s.Refreshes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestEdgeManifestHardExpiredShed pins the honesty contract: when the
// cached manifest is past its hard TTL and every origin fails, the edge
// answers 503 + Retry-After instead of serving arbitrarily stale bytes.
func TestEdgeManifestHardExpiredShed(t *testing.T) {
	origin := newTestOrigin(t, 0)
	e, clock, _ := newTestEdge(t, Config{
		VideoID:            "vid",
		ManifestSoftTTLSec: 1,
		ManifestHardTTLSec: 10,
	}, origin)

	if rec := get(e, "/manifest.json", "s1"); rec.Code != 200 {
		t.Fatalf("cold manifest = %d", rec.Code)
	}
	origin.failing.Store(true)
	clock.Advance(time.Minute)
	rec := get(e, "/manifest.json", "s1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("hard-expired manifest with dead origin = %d, want 503", rec.Code)
	}
	if ra, want := rec.Header().Get("Retry-After"), strconv.Itoa(dash.ShedRetryAfterSec); ra != want {
		t.Errorf("Retry-After = %q, want %q", ra, want)
	}
	if s := e.Stats(); s.Shed != 1 {
		t.Errorf("Shed = %d, want 1", s.Shed)
	}
}

// TestEdgeFailoverForwardsSession pins two contracts at once: a 500 from
// the primary moves the request to the next replica in ring order, and the
// client's X-Session-Id header reaches the origin on EVERY attempt — the
// failed primary attempt included — so origin-side admission accounting
// stays per-session under failover.
func TestEdgeFailoverForwardsSession(t *testing.T) {
	o0, o1 := newTestOrigin(t, 0), newTestOrigin(t, 1)
	e, _, _ := newTestEdge(t, Config{VideoID: "vid"}, o0, o1)

	order := e.OriginOrder("")
	origins := []*testOrigin{o0, o1}
	primary, backup := origins[order[0]], origins[order[1]]
	primary.failing.Store(true)

	rec := get(e, "/seg/0/0", "session-42")
	if rec.Code != 200 {
		t.Fatalf("failover GET = %d, want 200 via the backup", rec.Code)
	}
	if n := primary.requests.Load(); n != 1 {
		t.Fatalf("primary saw %d requests, want 1", n)
	}
	if n := backup.requests.Load(); n != 1 {
		t.Fatalf("backup saw %d requests, want 1", n)
	}
	for i, o := range []*testOrigin{primary, backup} {
		for _, sess := range o.sessionsSeen() {
			if sess != "session-42" {
				t.Errorf("origin %d attempt carried session %q, want session-42", i, sess)
			}
		}
	}
	if s := e.Stats(); s.Failovers != 1 || s.Origins[order[0]].Failures != 1 {
		t.Errorf("stats = %+v, want 1 failover on the primary", s)
	}
}

// TestEdgeShedWhenAllOriginsFail checks the every-replica-dead path for
// segments: honest 503 + Retry-After, nothing cached.
func TestEdgeShedWhenAllOriginsFail(t *testing.T) {
	o0, o1 := newTestOrigin(t, 0), newTestOrigin(t, 1)
	o0.failing.Store(true)
	o1.failing.Store(true)
	e, _, _ := newTestEdge(t, Config{VideoID: "vid"}, o0, o1)

	rec := get(e, "/seg/1/2", "s1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead GET = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	// Recovery: the failure was not cached, so a healthy origin serves the
	// same path on the next request.
	o0.failing.Store(false)
	o1.failing.Store(false)
	if rec := get(e, "/seg/1/2", "s1"); rec.Code != 200 {
		t.Fatalf("post-recovery GET = %d, want 200", rec.Code)
	}
	if s := e.Stats(); s.Shed != 1 {
		t.Errorf("Shed = %d, want 1", s.Shed)
	}
}

// TestEdgeSegmentCachingAndCoalescing exercises the cache through the HTTP
// surface: concurrent requests for one cold segment cost one origin round
// trip, and later requests are hits.
func TestEdgeSegmentCachingAndCoalescing(t *testing.T) {
	gate := make(chan struct{})
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		<-gate
		fmt.Fprint(w, "segment-bytes")
	}))
	defer srv.Close()

	clock := dash.NewFakeClock(time.Unix(1000, 0))
	e, err := New(Config{Origins: []string{srv.URL}, VideoID: "vid", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const concurrent = 8
	var wg sync.WaitGroup
	codes := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = get(e, "/seg/3/7", "s1").Code
		}(i)
	}
	waitFor(t, "coalesced waiters", func() bool {
		return e.Stats().Coalesced == concurrent-1
	})
	close(gate)
	wg.Wait()

	for i, code := range codes {
		if code != 200 {
			t.Errorf("request %d = %d, want 200", i, code)
		}
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("origin saw %d requests for one segment, want 1", n)
	}
	if rec := get(e, "/seg/3/7", "s1"); rec.Code != 200 {
		t.Errorf("warm GET = %d", rec.Code)
	}
	s := e.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Coalesced != concurrent-1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / %d coalesced", s, concurrent-1)
	}
}

// gatedTransport stands in for the origin link: each round trip signals
// started, waits for gate, and then fails with its request's context
// error if that context is done by then, as a real transport would, or
// answers 200 with body.
type gatedTransport struct {
	started, gate chan struct{}
	body          string
}

func (t *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.started <- struct{}{}
	<-t.gate
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK, Header: make(http.Header), Request: req,
		ContentLength: int64(len(t.body)), Body: io.NopCloser(strings.NewReader(t.body)),
	}, nil
}

// TestEdgeCoalescedFetchOutlivesLeader pins that a shared segment fetch
// belongs to the edge, not to the request that started it: the leader
// leaves mid-fetch, and the coalesced waiter still gets the body, with no
// shed and no failure charged to the origin or its breaker. The leader's
// cancel returns before the gate opens, so a fetch under the leader's
// context would fail every time.
func TestEdgeCoalescedFetchOutlivesLeader(t *testing.T) {
	e, err := New(Config{Origins: []string{"http://origin.test"}, VideoID: "vid",
		Clock: dash.NewFakeClock(time.Unix(1000, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tr := &gatedTransport{started: make(chan struct{}, 1), gate: make(chan struct{}), body: "segment-bytes"}
	e.client.Transport = tr

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/seg/2/5", nil).WithContext(ctx)
		e.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-tr.started
	var waiter *httptest.ResponseRecorder
	go func() {
		defer wg.Done()
		waiter = get(e, "/seg/2/5", "s2")
	}()
	waitFor(t, "the coalesced waiter", func() bool { return e.Stats().Coalesced == 1 })
	cancel()
	close(tr.gate)
	wg.Wait()

	if waiter.Code != http.StatusOK || waiter.Body.String() != tr.body {
		t.Errorf("waiter got %d %q, want 200 %q", waiter.Code, waiter.Body.String(), tr.body)
	}
	s := e.Stats()
	if s.Shed != 0 || s.Failovers != 0 || s.Origins[0].Failures != 0 {
		t.Errorf("stats = %+v, want no shed, failover or origin failure", s)
	}
	if b := e.breakers[0].Stats(); b.Failures != 0 {
		t.Errorf("origin breaker counted %d failures, want 0", b.Failures)
	}
}

// TestEdgeVideoPrefixSharding checks that /v/<id>/ paths shard by the id in
// the path: two different videos may land on different primaries, and the
// same id always lands on the same one.
func TestEdgeVideoPrefixSharding(t *testing.T) {
	o0, o1, o2 := newTestOrigin(t, 0), newTestOrigin(t, 1), newTestOrigin(t, 2)
	e, _, _ := newTestEdge(t, Config{VideoID: "default"}, o0, o1, o2)

	// Find two video ids with distinct primaries (must exist: the balance
	// test guarantees every origin owns a share of the keyspace).
	idByPrimary := map[int]string{}
	for k := 0; len(idByPrimary) < 2; k++ {
		id := fmt.Sprintf("vid-%d", k)
		idByPrimary[e.OriginOrder(id)[0]] = id
	}
	origins := []*testOrigin{o0, o1, o2}
	for primary, id := range idByPrimary {
		before := origins[primary].requests.Load()
		if rec := get(e, "/v/"+id+"/seg/0/0", "s1"); rec.Code != 200 {
			t.Fatalf("GET /v/%s/seg/0/0 = %d", id, rec.Code)
		}
		if got := origins[primary].requests.Load(); got != before+1 {
			t.Errorf("video %s did not fetch from its primary origin %d", id, primary)
		}
	}
}
