package edge

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cava/internal/dash"
	"cava/internal/video"
)

// cannedBody is one origin's answer on a stubbed link: a 200 whose
// declared Content-Length (-1 = none) and body are set independently.
type cannedBody struct {
	declared int64
	body     []byte
}

// stubOrigins stands in for the origin link: each origin URL answers its
// canned body, and every round trip is counted per origin.
type stubOrigins struct {
	urls []string
	resp []cannedBody

	mu    sync.Mutex
	calls []int
}

func (s *stubOrigins) RoundTrip(req *http.Request) (*http.Response, error) {
	base := req.URL.Scheme + "://" + req.URL.Host
	for i, u := range s.urls {
		if u != base {
			continue
		}
		s.mu.Lock()
		s.calls[i]++
		s.mu.Unlock()
		c := s.resp[i]
		return &http.Response{
			StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"video/test"}}, Request: req,
			ContentLength: c.declared, Body: io.NopCloser(bytes.NewReader(c.body)),
		}, nil
	}
	return nil, fmt.Errorf("stub: no origin at %s", base)
}

func (s *stubOrigins) called(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[i]
}

// payload returns n bytes that differ per origin.
func payload(origin, n int) []byte {
	return bytes.Repeat([]byte{byte('a' + origin)}, n)
}

// TestEdgeOriginBodyContract pins what the edge does with an origin body
// whose length disagrees with its Content-Length, and with one it cannot
// size up front. The ring's first origin answers the case's body and the
// second a correct one. A length mismatch, an empty body included, is an
// error naming the origin, the path and both sizes: the request fails over,
// the failure counts against the first origin and its breaker, and only the
// second origin's body is served and cached. An undeclared length and one
// above the cache budget are read whole and accepted from the first origin;
// a body above the budget is served but not cached.
func TestEdgeOriginBodyContract(t *testing.T) {
	const (
		budget = 1 << 10
		path   = "/seg/2/5"
	)
	cases := []struct {
		name     string
		declared int64
		n        int  // body bytes the first origin sends
		failover bool // the first origin's answer is refused
		cached   bool
	}{
		{name: "short", declared: 300, n: 120, failover: true, cached: true},
		{name: "empty", declared: 300, n: 0, failover: true, cached: true},
		{name: "long", declared: 300, n: 480, failover: true, cached: true},
		{name: "undeclared", declared: -1, n: 300, cached: true},
		{name: "above-budget", declared: 3 * budget, n: 3 * budget},
		{name: "above-budget-short", declared: 3 * budget, n: 2 * budget, failover: true, cached: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(Config{Origins: []string{"http://o0.test", "http://o1.test"}, VideoID: "vid",
				CacheBytes: budget, Clock: dash.NewFakeClock(time.Unix(1000, 0))})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			order := e.OriginOrder("")
			first, second := order[0], order[1]
			good := payload(second, 200)
			stub := &stubOrigins{urls: e.cfg.Origins, resp: make([]cannedBody, 2), calls: make([]int, 2)}
			stub.resp[first] = cannedBody{declared: tc.declared, body: payload(first, tc.n)}
			stub.resp[second] = cannedBody{declared: int64(len(good)), body: good}
			e.client.Transport = stub

			want, from, wantFail := stub.resp[first].body, first, uint64(0)
			if tc.failover {
				want, from, wantFail = good, second, 1
			}
			rec := get(e, path, "s1")
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("client got %d and %d bytes, want 200 and %d bytes of origin %d",
					rec.Code, rec.Body.Len(), len(want), from)
			}
			if got := stub.called(second); uint64(got) != wantFail {
				t.Errorf("second origin tried %d times, want %d", got, wantFail)
			}
			s := e.Stats()
			if s.Origins[first].Failures != wantFail || s.Failovers != wantFail || s.Shed != 0 {
				t.Errorf("first origin failures %d, failovers %d, shed %d; want %d, %d, 0",
					s.Origins[first].Failures, s.Failovers, s.Shed, wantFail, wantFail)
			}
			if b := e.breakers[first].Stats(); uint64(b.Failures) != wantFail {
				t.Errorf("first origin's breaker counted %d failures, want %d", b.Failures, wantFail)
			}
			if got := e.segs.Peek(path); got != tc.cached {
				t.Fatalf("cached = %v, want %v", got, tc.cached)
			}
			if tc.cached {
				before := stub.called(first) + stub.called(second)
				if rec := get(e, path, "s1"); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("cache hit served %d bytes, want the %d served on the miss", rec.Body.Len(), len(want))
				}
				if after := stub.called(first) + stub.called(second); after != before {
					t.Errorf("cache hit reached the origins (%d more round trips)", after-before)
				}
			}

			// The refused answer's error names the origin, the path and both
			// sizes.
			if tc.failover {
				_, err := e.fetchOnce(e.ctx, first, path, "s1")
				if err == nil {
					t.Fatal("fetchOnce accepted a body whose length differs from its Content-Length")
				}
				for _, part := range []string{fmt.Sprintf("origin %d", first), path,
					fmt.Sprint(tc.n), fmt.Sprint(tc.declared)} {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("error %q does not name %q", err, part)
					}
				}
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps no body, so the bytes a
// request allocates through the handler are the edge's and its origin's.
type discardWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.status = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

// TestEdgeMissAllocatesBodyOnce is the miss path's allocation gate. Each
// cold miss of a large segment, served through Edge.Handler from a
// loopback dash.VideoMux origin, may allocate at most 1.25 × its body plus
// 64 KiB (TotalAlloc over the request, the origin's side included): the
// body is read once into a buffer of its declared size. A read that grows
// its buffer from small allocates about five times the body.
func TestEdgeMissAllocatesBodyOnce(t *testing.T) {
	v := video.ByID("ED-ffmpeg-h264")
	mux, err := dash.NewVideoMux(dash.NewServer(v))
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(mux.Handler())
	defer origin.Close()
	e, err := New(Config{Origins: []string{origin.URL}, VideoID: v.ID()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := e.Handler()
	serve := func(path string) *discardWriter {
		w := &discardWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	serve("/seg/0/0") // opens the keep-alive connection to the origin

	top := v.NumTracks() - 1
	var ms runtime.MemStats
	lo, hi := math.Inf(1), 0.0
	for s := 0; s < v.NumChunks(); s += 25 {
		size := int64(v.ChunkSize(top, s)+7) / 8
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		w := serve(dash.SegmentURL(top, s))
		runtime.ReadMemStats(&ms)
		alloc := int64(ms.TotalAlloc - before)
		if w.status != http.StatusOK || w.n != size {
			t.Fatalf("segment %d: got %d and %d bytes, want 200 and %d", s, w.status, w.n, size)
		}
		if limit := size + size/4 + 64<<10; alloc > limit {
			t.Errorf("segment %d: a %d B miss allocated %d B (%.2f × body), want at most %d",
				s, size, alloc, float64(alloc)/float64(size), limit)
		}
		lo, hi = min(lo, float64(alloc)/float64(size)), max(hi, float64(alloc)/float64(size))
	}
	t.Logf("a miss allocated %.3f–%.3f × its body", lo, hi)
	if st := e.Stats(); st.Misses != uint64(1+(v.NumChunks()+24)/25) || st.Hits != 0 {
		t.Errorf("edge stats %+v, want every request a cold miss", st)
	}
}
