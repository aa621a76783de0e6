package cava_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cava/internal/dash"
	"cava/internal/edge"
	"cava/internal/video"
)

// TestEdgeBench is the edge tier's cache and sharding gate: a fixed seeded
// workload of segment requests across three videos is pushed through an
// edge fronting three full-catalog origins. The gate asserts the cache
// absorbs the workload's re-requests (hit ratio above the structural
// floor) and that the consistent-hash ring spreads origin fetches by
// content.
func TestEdgeBench(t *testing.T) {
	const (
		origins  = 3
		requests = 2400
		workers  = 8
		seed     = 7
	)

	// Every origin carries the full three-video catalog (the replication
	// consistent-hash failover relies on); the edge shards videos across
	// origins by /v/<id>/ path.
	titles := video.OpenTitles[:3]
	videos := make([]*video.Video, len(titles))
	ids := make([]string, len(titles))
	for i, title := range titles {
		videos[i] = video.FFmpegVideo(title, video.H264)
		ids[i] = videos[i].ID()
	}
	originURLs := make([]string, origins)
	for i := 0; i < origins; i++ {
		servers := make([]*dash.Server, len(videos))
		for j, v := range videos {
			servers[j] = dash.NewServer(v)
		}
		mux, err := dash.NewVideoMux(servers...)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(mux.Handler())
		defer srv.Close()
		originURLs[i] = srv.URL
	}

	e, err := edge.New(edge.Config{
		Origins:    originURLs,
		VideoID:    ids[0],
		CacheBytes: 64 << 20,
		JitterSeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The seeded workload: a zipf-ish mix where a third of the requests
	// re-ask for one hot segment per video and the rest sweep segments and
	// tracks, so hits, coalescing, and multi-origin fetches all occur.
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, requests)
	for i := range paths {
		vid := ids[rng.Intn(len(ids))]
		track := rng.Intn(3)
		idx := rng.Intn(8)
		if rng.Intn(3) == 0 {
			track, idx = 0, 0 // the hot segment
		}
		paths[i] = fmt.Sprintf("/v/%s%s", vid, dash.SegmentURL(track, idx))
	}

	handler := e.Handler()
	var wg sync.WaitGroup
	errs := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < requests; i += workers {
				req := httptest.NewRequest(http.MethodGet, paths[i], nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	for w, n := range errs {
		if n > 0 {
			t.Errorf("worker %d saw %d non-200 responses", w, n)
		}
	}
	s := e.Stats()
	if got := s.Hits + s.Misses + s.Coalesced; got != requests {
		t.Errorf("dispositions sum to %d, want %d", got, requests)
	}
	// At most 3 videos × 3 tracks × 8 segments = 72 distinct paths can
	// miss; everything else must hit or coalesce.
	if s.HitRatio() < 0.9 {
		t.Errorf("hit ratio %.2f; 2400 requests over ≤72 distinct segments should mostly hit", s.HitRatio())
	}
	if s.Failovers != 0 || s.Shed != 0 {
		t.Errorf("healthy bench recorded %d failovers, %d sheds", s.Failovers, s.Shed)
	}
	// The ring spreads the three videos' fetches across origins: with each
	// video owning a primary, no single origin serves everything.
	fetched := make([]uint64, len(s.Origins))
	var busiest int
	for i, os := range s.Origins {
		fetched[i] = os.FetchedBytes
		if os.FetchedBytes > fetched[busiest] {
			busiest = i
		}
	}
	primaries := map[int]bool{}
	for _, id := range ids {
		primaries[e.OriginOrder(id)[0]] = true
	}
	if len(primaries) > 1 && fetched[busiest] == s.Origins[0].FetchedBytes+
		s.Origins[1].FetchedBytes+s.Origins[2].FetchedBytes {
		t.Errorf("one origin served all bytes despite %d distinct primaries: %v", len(primaries), fetched)
	}
}
