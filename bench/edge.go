package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cava/internal/dash"
	"cava/internal/edge"
	"cava/internal/video"
)

// Request counts are fixed per rep and sized to about 1.5 s on two cores.
// Requests follow a Zipf(1.1) popularity over the catalog in a closed loop:
// a DASH player asks for its next segment only after the last one arrived.
// An open-loop generator at a fixed rate was tried and rejected: its p99
// swung several-fold between runs on a two-core machine.
const (
	edgeOrigins       = 3
	edgeHotRequests   = 40_000
	edgeChurnRequests = 3_000
	edgeZipfS         = 1.1
	// edgeHotCacheBytes holds the whole hot working set; edgeChurnCacheBytes
	// is small enough that the median churn request is a miss.
	edgeHotCacheBytes   = 64 << 20
	edgeChurnCacheBytes = 8 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// edgeWorkload drives edge.New in front of three loopback origins, each
// serving the first three open titles (FFmpeg H.264), with one keep-alive
// client connection per worker. Hot prefills a working set of tracks 0-2 ×
// segments 0-39 into a cache it fits in, so every timed request is a hit.
// Churn asks for every track and segment (about 2 GB) through an 8 MiB
// cache from cold, so the miss path dominates.
func edgeWorkload(hot bool) func(repConfig) (*repResult, error) {
	return func(cfg repConfig) (*repResult, error) {
		name, n, cacheBytes := "edge-churn", edgeChurnRequests, int64(edgeChurnCacheBytes)
		if hot {
			name, n, cacheBytes = "edge-hot", edgeHotRequests, edgeHotCacheBytes
		}
		if cfg.small {
			n = 2000
		}
		m := newMeter(name, cfg)
		var (
			origins []*httptest.Server
			timers  []*originTimer
			e       *edge.Edge
			front   *httptest.Server
			clients []*http.Client
			urls    []string // per request
			sizes   []int64  // per request, from the manifest
		)
		defer func() {
			for _, c := range clients {
				c.CloseIdleConnections()
			}
			if front != nil {
				front.Close()
			}
			if e != nil {
				e.Close()
			}
			for _, o := range origins {
				o.Close()
			}
		}()
		err := m.setup(func() error {
			videos := make([]*video.Video, 3)
			for i, t := range video.OpenTitles[:3] {
				videos[i] = video.FFmpegVideo(t, video.H264)
			}
			originURLs := make([]string, edgeOrigins)
			for o := range originURLs {
				servers := make([]*dash.Server, len(videos))
				for i, v := range videos {
					servers[i] = dash.NewServer(v)
				}
				mux, err := dash.NewVideoMux(servers...)
				if err != nil {
					return err
				}
				var h http.Handler = mux.Handler()
				if cfg.spans != nil {
					t := &originTimer{next: h, spans: cfg.spans, origin: o}
					timers = append(timers, t)
					h = t
				}
				origins = append(origins, httptest.NewServer(h))
				originURLs[o] = origins[o].URL
			}
			var err error
			if e, err = edge.New(edge.Config{Origins: originURLs, CacheBytes: cacheBytes, JitterSeed: cfg.seed}); err != nil {
				return err
			}
			front = httptest.NewServer(e.Handler())

			var catalog []string
			var catalogSizes []int64
			for _, v := range videos {
				tracks, segs := v.NumTracks(), v.NumChunks()
				if hot {
					tracks, segs = 3, 40
				}
				man := dash.BuildManifest(v)
				for t := 0; t < tracks; t++ {
					for s := 0; s < segs; s++ {
						catalog = append(catalog, front.URL+"/v/"+v.ID()+dash.SegmentURL(t, s))
						catalogSizes = append(catalogSizes, int64(int(man.Tracks[t].SegmentBits[s]+7)/8))
					}
				}
			}
			rng := rand.New(rand.NewSource(cfg.seed))
			order := popularity(catalogSizes, rng)
			urls, sizes = make([]string, n), make([]int64, n)
			for i, rank := range zipfRequests(n, len(catalog), rng) {
				k := order[rank]
				urls[i], sizes[i] = catalog[k], catalogSizes[k]
			}
			for c := 0; c < cfg.workers; c++ {
				clients = append(clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
			}
			if hot {
				buf := make([]byte, 32<<10)
				for k, u := range catalog {
					if out := fetch(clients[0], u, "", catalogSizes[k], buf); out.err != nil {
						return fmt.Errorf("prefill: %w", out.err)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		base := e.Stats()
		originBase := make([][2]int64, len(timers))
		for i, t := range timers {
			originBase[i] = [2]int64{t.requests.Load(), t.busyNs.Load()}
		}
		r := m.r
		digests := make([]uint64, n)
		latency := make([]float64, n)
		var failed atomic.Int64
		var firstErr sync.Once
		err = m.run(func() error {
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					buf := make([]byte, 32<<10)
					for i := c; i < n; i += len(clients) {
						sid := fmt.Sprintf("q%d", i)
						start := cfg.spans.since()
						t := time.Now()
						out := fetch(clients[c], urls[i], sid, sizes[i], buf)
						d := time.Since(t)
						latency[i] = float64(d) / 1e6
						cfg.spans.add(span{Trace: sid, ID: sid, Parent: "run", Name: "edge.request", StartNs: start, DurNs: int64(d)})
						if out.err != nil {
							failed.Add(1)
							firstErr.Do(func() { fmt.Fprintf(os.Stderr, "%s: request %d: %v\n", name, i, out.err) })
						}
						digests[i] = out.digest(i)
					}
				}(c)
			}
			wg.Wait()
			return nil
		})
		if err != nil {
			return nil, err
		}

		s := e.Stats()
		hits, misses, coalesced := s.Hits-base.Hits, s.Misses-base.Misses, s.Coalesced-base.Coalesced
		evictions := s.Evictions - base.Evictions
		var originBytes, originBytesBase uint64
		for i := range s.Origins {
			originBytes += s.Origins[i].FetchedBytes
			originBytesBase += base.Origins[i].FetchedBytes
		}
		r.Ops, r.Attempted, r.Failed = int64(n), int64(n), failed.Load()
		r.LatencyMs = latency
		if r.Failed > 0 {
			r.errorf("%s: %d of %d requests failed", name, r.Failed, n)
		}
		if got := hits + misses + coalesced; got != uint64(n) {
			r.errorf("%s: hits+misses+coalesced = %d for %d requests", name, got, n)
		}
		if hot && (misses != 0 || evictions != 0) {
			r.errorf("%s: %d misses and %d evictions on a prefilled working set", name, misses, evictions)
		}
		r.Layer["edge.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		r.Layer["edge.coalesced_ratio"] = ratio(float64(coalesced), float64(n))
		r.Layer["edge.evictions_per_request"] = ratio(float64(evictions), float64(n))
		r.Layer["edge.origin_bytes_per_served_byte"] = ratio(float64(originBytes-originBytesBase), float64(s.ServedBytes-base.ServedBytes))
		if cfg.spans != nil {
			var reqs, busy int64
			for i, t := range timers {
				reqs += t.requests.Load() - originBase[i][0]
				busy += t.busyNs.Load() - originBase[i][1]
			}
			r.Layer["dash.origin_requests"] = float64(reqs)
			r.Layer["dash.origin_serve_us"] = ratio(float64(busy)/1e3, float64(reqs))
		}
		h := fnv.New64a()
		var b [8]byte
		for _, d := range digests {
			binary.LittleEndian.PutUint64(b[:], d)
			h.Write(b[:])
		}
		r.Digest = fmt.Sprintf("%016x", h.Sum64())
		return m.finish(cfg)
	}
}

// popularity returns catalog indices from most to least popular. Every
// seed gives each popularity rank a segment of the same size rank (a fixed
// shuffle), and the seed only picks among segments of nearly equal size,
// so seeds request different segments but the same byte volume.
func popularity(sizes []int64, rng *rand.Rand) []int {
	const block = 16 // segments treated as the same size
	bySize := make([]int, len(sizes))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return sizes[bySize[a]] < sizes[bySize[b]] })
	for lo := 0; lo < len(bySize); lo += block {
		blk := bySize[lo:min(lo+block, len(bySize))]
		rng.Shuffle(len(blk), func(a, b int) { blk[a], blk[b] = blk[b], blk[a] })
	}
	sizeRank := rand.New(rand.NewSource(0)).Perm(len(sizes))
	order := make([]int, len(sizes))
	for r, k := range sizeRank {
		order[r] = bySize[k]
	}
	return order
}

// zipfRequests returns n popularity ranks over items in seeded order. Rank
// k is asked for exactly its Zipf share n·(k+1)^-s / Σ, rounded by largest
// remainder, so seeds change the order of requests but not their mix.
func zipfRequests(n, items int, rng *rand.Rand) []int {
	weights := make([]float64, items)
	sum := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -edgeZipfS)
		sum += weights[k]
	}
	out := make([]int, 0, n)
	byRemainder := make([]int, items)
	remainder := make([]float64, items)
	for k, w := range weights {
		exact := float64(n) * w / sum
		for c := int(exact); c > 0; c-- {
			out = append(out, k)
		}
		byRemainder[k], remainder[k] = k, exact-math.Floor(exact)
	}
	sort.SliceStable(byRemainder, func(a, b int) bool { return remainder[byRemainder[a]] > remainder[byRemainder[b]] })
	for _, k := range byRemainder[:n-len(out)] {
		out = append(out, k)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// fetched is one segment response as the client saw it.
type fetched struct {
	status int
	bytes  int64
	crc    uint32
	err    error
}

func (f fetched) digest(i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %08x", i, f.status, f.bytes, f.crc)
	return h.Sum64()
}

// fetch GETs one segment on cl's keep-alive connection and checks the
// response is a 200 whose Content-Length and body both match the manifest
// size. A non-empty sid goes out as the session header, which the edge
// forwards to the origin.
func fetch(cl *http.Client, url, sid string, want int64, buf []byte) fetched {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return fetched{err: err}
	}
	if sid != "" {
		req.Header.Set(dash.SessionIDHeader, sid)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return fetched{err: err}
	}
	defer resp.Body.Close()
	h := crc32.New(castagnoli)
	nb, err := io.CopyBuffer(h, resp.Body, buf)
	out := fetched{status: resp.StatusCode, bytes: nb, crc: h.Sum32(), err: err}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("status %d for %s", resp.StatusCode, url)
	case resp.ContentLength != want || nb != want:
		out.err = fmt.Errorf("%s: Content-Length %d, body %d bytes, manifest size %d", url, resp.ContentLength, nb, want)
	}
	return out
}

// originTimer wraps an origin's handler in a traced run: it counts and
// times every request the edge sends it and records a span under the
// request's session id, so origin time nests inside the client's request
// span.
type originTimer struct {
	next     http.Handler
	spans    *spanLog
	origin   int
	requests atomic.Int64
	busyNs   atomic.Int64
}

func (o *originTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := o.spans.since()
	t := time.Now()
	o.next.ServeHTTP(w, r)
	d := int64(time.Since(t))
	o.requests.Add(1)
	o.busyNs.Add(d)
	if sid := r.Header.Get(dash.SessionIDHeader); sid != "" {
		o.spans.add(span{Trace: sid, ID: fmt.Sprintf("%s/origin%d", sid, o.origin), Parent: sid, Name: "dash.origin", StartNs: start, DurNs: d})
	}
}

// ratio is a/b, 0 when b is 0 (no work of that kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
