// Package edge is the testbed's edge/CDN tier: an HTTP server that fronts
// N dash.Server origins and gives many concurrent players one fast,
// failure-absorbing facade — the clients → edge → sharded-origins
// architecture the ROADMAP's "millions of users" north star names.
//
// Mechanisms, outermost first:
//
//   - Consistent-hash sharding (ring.go): every video id owns a stable
//     primary origin plus an ordered failover chain, so load spreads
//     across origins by content and every edge instance agrees on the
//     placement.
//   - Bounded LRU segment cache with singleflight coalescing
//     (segcache.go): a segment is fetched from its origin once, no matter
//     how many players ask concurrently; the byte budget evicts from the
//     cold end.
//   - Stale-while-revalidate manifests: a cached manifest/playlist is
//     served immediately while a background refresh runs; past the soft
//     TTL the response is stale-but-instant, past the hard TTL stale is
//     refused and the fetch goes to the origins synchronously.
//   - Per-request origin failover: a 5xx, timeout, or connection error
//     moves the request to the next replica in ring order after a capped,
//     seeded-jitter backoff. A per-origin circuit breaker (dash.Breaker)
//     marks dead origins so subsequent requests skip them immediately and
//     recovery is probed with bounded concurrency.
//
// When every replica fails, the edge sheds honestly: 503 with a
// Retry-After hint, the same contract the overload-protection layer and
// the resilient client already speak. All wall-clock access flows through
// an injected dash.Clock, so the stale/failover state machines are pinned
// by FakeClock unit tests.
package edge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cava/internal/dash"
	"cava/internal/telemetry"
)

// Config describes one edge instance. Origins is required; zero values
// elsewhere select the documented defaults.
type Config struct {
	// Origins are the origin base URLs ("http://127.0.0.1:41234"), one per
	// replica. Order does not matter; placement comes from the hash ring.
	Origins []string
	// VideoID is the ring key for requests that carry no /v/<id>/ prefix
	// (the single-video namespace dash.Client speaks).
	VideoID string
	// CacheBytes bounds the segment cache payload (default 64 MiB).
	CacheBytes int64
	// ManifestSoftTTLSec is the age (wall seconds) past which a cached
	// manifest is served stale while a background refresh runs (default 1).
	ManifestSoftTTLSec float64
	// ManifestHardTTLSec is the age past which a stale manifest is refused
	// and the fetch becomes synchronous (default 120).
	ManifestHardTTLSec float64
	// JitterSeed seeds the failover backoff jitter.
	JitterSeed int64
	// Breaker is the per-origin circuit-breaker policy (zero value =
	// dash.DefaultBreakerConfig).
	Breaker dash.BreakerConfig
	// Clock supplies all time; nil uses the wall clock.
	Clock dash.Clock
}

// The origin request policy is fixed: every edge deployment runs it at
// these values. Edge-shed 503s carry dash.ShedRetryAfterSec.
const (
	// attemptTimeoutSec bounds each origin attempt in wall seconds.
	attemptTimeoutSec = 5
	// failoverBackoffSec and failoverBackoffMaxSec bound the jittered
	// exponential pause between failover attempts, in wall seconds (the
	// jitter is full and seeded by Config.JitterSeed).
	failoverBackoffSec    = 0.01
	failoverBackoffMaxSec = 0.1
)

// withDefaults fills zero fields with the standard policy values.
func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.ManifestSoftTTLSec <= 0 {
		c.ManifestSoftTTLSec = 1
	}
	if c.ManifestHardTTLSec <= 0 {
		c.ManifestHardTTLSec = 120
	}
	return c
}

// OriginStats is one origin's request accounting at the edge.
type OriginStats struct {
	// Requests counts attempts sent to this origin.
	Requests uint64
	// Failures counts attempts that errored, timed out, or answered 5xx.
	Failures uint64
	// FetchedBytes counts payload bytes pulled from this origin.
	FetchedBytes uint64
}

// Stats is a snapshot of the edge's counters (segment cache + manifest
// stale-while-revalidate combined).
type Stats struct {
	// Hits, Misses, Coalesced and Evictions describe the cache: fresh
	// serves, origin fetches, piggybacked fetches, and LRU evictions.
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	// StaleServed counts manifests served past their soft TTL;
	// Refreshes/RefreshFailures count the background revalidations.
	StaleServed     uint64
	Refreshes       uint64
	RefreshFailures uint64
	// Failovers counts failed attempts that moved a request to the next
	// replica; BreakerSkips counts replicas skipped on an open breaker.
	Failovers    uint64
	BreakerSkips uint64
	// Shed counts requests answered 503 + Retry-After because every
	// replica failed (or a stale manifest passed its hard TTL).
	Shed uint64
	// ServedBytes counts payload bytes written to clients.
	ServedBytes uint64
	// Origins holds the per-origin accounting, indexed like Config.Origins.
	Origins []OriginStats
}

// HitRatio returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// manifestEntry is one cached manifest/playlist with its revalidation
// state.
type manifestEntry struct {
	body        []byte
	contentType string
	fetched     time.Time
	refreshing  bool
}

// Edge is the edge server. Build with New, serve Handler(), and Close when
// done (Close drains the background refreshers).
type Edge struct {
	cfg    Config
	ring   *Ring
	segs   *SegCache
	client *http.Client
	clock  dash.Clock

	breakers []*dash.Breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	mmu       sync.Mutex
	manifests map[string]*manifestEntry

	smu          sync.Mutex
	manifestHits uint64
	manifestMiss uint64
	stale        uint64
	refreshes    uint64
	refreshFails uint64
	failovers    uint64
	breakerSkips uint64
	shedCount    uint64
	servedBytes  uint64
	originStats  []OriginStats

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the config and builds an edge instance.
func New(cfg Config) (*Edge, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Origins) == 0 {
		return nil, errors.New("edge: Config needs at least one origin")
	}
	ring, err := NewRing(cfg.Origins, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		ResponseHeaderTimeout: 30 * time.Second,
		MaxIdleConnsPerHost:   16,
	}}
	clock := cfg.Clock
	if clock == nil {
		clock = dash.RealClock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Edge{
		cfg:         cfg,
		ring:        ring,
		segs:        NewSegCache(cfg.CacheBytes),
		client:      client,
		clock:       clock,
		rng:         rand.New(rand.NewSource(cfg.JitterSeed)),
		manifests:   make(map[string]*manifestEntry),
		originStats: make([]OriginStats, len(cfg.Origins)),
		ctx:         ctx,
		cancel:      cancel,
	}
	for range cfg.Origins {
		e.breakers = append(e.breakers, dash.NewOriginBreaker(cfg.Breaker).WithClock(clock))
	}
	return e, nil
}

// SetMetrics exposes the edge on reg (nil disables): each counter reads
// its Stats field at scrape time, and the cache-bytes gauge reads the
// segment cache.
func (e *Edge) SetMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("edge_cache_hits_total", "edge requests served from cache",
		func() uint64 { return e.Stats().Hits })
	reg.CounterFunc("edge_cache_misses_total", "edge requests fetched from an origin",
		func() uint64 { return e.Stats().Misses })
	reg.CounterFunc("edge_cache_evictions_total", "segment cache entries evicted for the byte budget",
		func() uint64 { return e.Stats().Evictions })
	reg.CounterFunc("edge_coalesced_requests_total", "edge requests coalesced onto an in-flight origin fetch",
		func() uint64 { return e.Stats().Coalesced })
	reg.CounterFunc("edge_origin_failovers_total", "failed origin attempts that failed over to the next replica",
		func() uint64 { return e.Stats().Failovers })
	reg.CounterFunc("edge_stale_served_total", "manifests served stale while revalidating",
		func() uint64 { return e.Stats().StaleServed })
	reg.CounterFunc("edge_shed_total", "edge requests shed 503 + Retry-After (all replicas failed)",
		func() uint64 { return e.Stats().Shed })
	reg.CounterFunc("edge_served_bytes_total", "payload bytes written to clients",
		func() uint64 { return e.Stats().ServedBytes })
	reg.GaugeFunc("edge_cache_bytes", "segment cache resident payload bytes",
		func() float64 { return float64(e.segs.Stats().StoredBytes) })
}

// Close stops the background refreshers and releases idle origin
// connections. The handler must not be serving new requests.
func (e *Edge) Close() {
	e.cancel()
	e.wg.Wait()
	e.client.CloseIdleConnections()
}

// OriginOrder returns the failover order (origin indices, primary first)
// for the given video id — the default video when id is empty.
func (e *Edge) OriginOrder(videoID string) []int {
	if videoID == "" {
		videoID = e.cfg.VideoID
	}
	return e.ring.Order(videoID)
}

// Stats returns a snapshot of the edge counters.
func (e *Edge) Stats() Stats {
	seg := e.segs.Stats()
	e.smu.Lock()
	defer e.smu.Unlock()
	out := Stats{
		Hits:            seg.Hits + e.manifestHits,
		Misses:          seg.Misses + e.manifestMiss,
		Coalesced:       seg.Coalesced,
		Evictions:       seg.Evictions,
		StaleServed:     e.stale,
		Refreshes:       e.refreshes,
		RefreshFailures: e.refreshFails,
		Failovers:       e.failovers,
		BreakerSkips:    e.breakerSkips,
		Shed:            e.shedCount,
		ServedBytes:     e.servedBytes,
		Origins:         append([]OriginStats(nil), e.originStats...),
	}
	return out
}

// videoKeyOf extracts the ring key from a request path: the id inside a
// /v/<id>/... prefix, the configured default otherwise.
func (e *Edge) videoKeyOf(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v/"); ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			return rest[:i]
		}
	}
	return e.cfg.VideoID
}

// isManifestPath reports whether path names a manifest or playlist (the
// stale-while-revalidate set).
func isManifestPath(path string) bool {
	base := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		base = path[i+1:]
	}
	switch base {
	case "manifest.json", "manifest.mpd", "master.m3u8":
		return true
	}
	return strings.HasPrefix(base, "track_") && strings.HasSuffix(base, ".m3u8")
}

// Handler returns the edge's HTTP handler.
func (e *Edge) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		switch {
		case isManifestPath(r.URL.Path):
			e.serveManifest(w, r)
		case strings.Contains(r.URL.Path, "/seg/"):
			e.serveSegment(w, r)
		default:
			// Pass anything else (health probes, bad paths) through to the
			// origins uncached so the edge namespace matches an origin's.
			ent, err := e.fetchWithFailover(r.Context(), r.URL.Path, sessionOf(r))
			if err != nil {
				e.shed(w, "all origins failed")
				return
			}
			e.reply(w, ent)
		}
	})
}

// serveSegment answers a segment request through the LRU + singleflight
// cache.
func (e *Edge) serveSegment(w http.ResponseWriter, r *http.Request) {
	path, session := r.URL.Path, sessionOf(r)
	ent, _, err := e.segs.GetOrFetch(path, func() (Entry, error) {
		return e.fetchWithFailover(r.Context(), path, session)
	})
	if err != nil {
		e.shed(w, "all origins failed")
		return
	}
	e.reply(w, ent)
}

// serveManifest answers a manifest/playlist request under the
// stale-while-revalidate state machine:
//
//	age < soft TTL          -> serve cached (fresh hit)
//	soft TTL <= age < hard  -> serve cached now, refresh in background
//	age >= hard TTL (or no entry) -> fetch synchronously; on total origin
//	                                 failure, shed 503 + Retry-After
func (e *Edge) serveManifest(w http.ResponseWriter, r *http.Request) {
	path, session := r.URL.Path, sessionOf(r)
	e.mmu.Lock()
	if ent := e.manifests[path]; ent != nil {
		age := e.clock.Now().Sub(ent.fetched).Seconds()
		if age < e.cfg.ManifestSoftTTLSec {
			body, ct := ent.body, ent.contentType
			e.mmu.Unlock()
			e.smu.Lock()
			e.manifestHits++
			e.smu.Unlock()
			e.reply(w, Entry{Body: body, ContentType: ct, Status: http.StatusOK})
			return
		}
		if age < e.cfg.ManifestHardTTLSec {
			body, ct := ent.body, ent.contentType
			if !ent.refreshing {
				ent.refreshing = true
				e.wg.Add(1)
				go e.refreshManifest(path, session)
			}
			e.mmu.Unlock()
			e.smu.Lock()
			e.stale++
			e.smu.Unlock()
			e.reply(w, Entry{Body: body, ContentType: ct, Status: http.StatusOK})
			return
		}
		// Hard-expired: too stale to serve. Fall through to a synchronous
		// fetch; the entry stays as a refresh target but never as a body.
	}
	e.mmu.Unlock()

	ent, err := e.fetchWithFailover(r.Context(), path, session)
	e.smu.Lock()
	e.manifestMiss++
	e.smu.Unlock()
	if err != nil {
		e.shed(w, "manifest unavailable")
		return
	}
	if ent.Status == http.StatusOK {
		e.mmu.Lock()
		e.manifests[path] = &manifestEntry{
			body: ent.Body, contentType: ent.ContentType, fetched: e.clock.Now(),
		}
		e.mmu.Unlock()
	}
	e.reply(w, ent)
}

// refreshManifest revalidates one manifest in the background (the
// stale-while-revalidate "revalidate" arm).
func (e *Edge) refreshManifest(path, session string) {
	defer e.wg.Done()
	ent, err := e.fetchWithFailover(e.ctx, path, session)
	e.mmu.Lock()
	me := e.manifests[path]
	if me != nil {
		me.refreshing = false
	}
	ok := err == nil && ent.Status == http.StatusOK && me != nil
	if ok {
		me.body, me.contentType, me.fetched = ent.Body, ent.ContentType, e.clock.Now()
	}
	e.mmu.Unlock()
	e.smu.Lock()
	if ok {
		e.refreshes++
	} else {
		e.refreshFails++
	}
	e.smu.Unlock()
}

// errAllOrigins reports a request that exhausted every replica.
var errAllOrigins = errors.New("edge: every origin failed")

// fetchWithFailover walks the ring order for the request's video, skipping
// origins with an open breaker, until a replica answers below 500. The
// session id is forwarded on every attempt so origin-side admission
// accounting stays per-session under failover.
func (e *Edge) fetchWithFailover(ctx context.Context, path, session string) (Entry, error) {
	order := e.ring.Order(e.videoKeyOf(path))
	lastErr := errAllOrigins
	attempted := 0
	for _, oi := range order {
		b := e.breakers[oi]
		pass, probe, _ := b.Allow()
		if !pass {
			e.smu.Lock()
			e.breakerSkips++
			e.smu.Unlock()
			continue
		}
		if attempted > 0 {
			// Between replicas: a capped, seeded full-jitter pause, so a
			// fleet of edges hitting one dead origin does not stampede the
			// next replica in lockstep.
			e.clock.Sleep(dash.Seconds(e.failoverBackoff(attempted - 1)))
		}
		attempted++
		ent, err := e.fetchOnce(ctx, oi, path, session)
		failed := err != nil || ent.Status >= http.StatusInternalServerError
		b.Observe(probe, failed)
		e.smu.Lock()
		e.originStats[oi].Requests++
		if failed {
			e.originStats[oi].Failures++
			e.failovers++
		} else {
			e.originStats[oi].FetchedBytes += uint64(len(ent.Body))
		}
		e.smu.Unlock()
		if !failed {
			return ent, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("edge: origin %d answered %d for %s", oi, ent.Status, path)
		}
		if cerr := ctx.Err(); cerr != nil {
			return Entry{}, cerr
		}
	}
	return Entry{}, lastErr
}

// fetchOnce performs one origin attempt under the per-attempt deadline.
func (e *Edge) fetchOnce(ctx context.Context, origin int, path, session string) (Entry, error) {
	actx, cancel := context.WithTimeout(ctx, dash.Seconds(attemptTimeoutSec))
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, e.cfg.Origins[origin]+path, nil)
	if err != nil {
		return Entry{}, err
	}
	if session != "" {
		req.Header.Set(dash.SessionIDHeader, session)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return Entry{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Entry{}, err
	}
	if declared := resp.ContentLength; declared >= 0 && int64(len(body)) != declared {
		return Entry{}, fmt.Errorf("edge: origin %d truncated %s: %d of %d bytes",
			origin, path, len(body), declared)
	}
	return Entry{
		Body:        body,
		ContentType: resp.Header.Get("Content-Type"),
		Status:      resp.StatusCode,
	}, nil
}

// failoverBackoff returns the wall-seconds pause before failover attempt r
// (0-based): dash.JitteredBackoff under the edge's bounds, with the shared
// RNG serialized across concurrent requests.
func (e *Edge) failoverBackoff(r int) float64 {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return dash.JitteredBackoff(e.rng, r, failoverBackoffSec, failoverBackoffMaxSec)
}

// reply writes a buffered origin response to the client.
func (e *Edge) reply(w http.ResponseWriter, ent Entry) {
	if ent.ContentType != "" {
		w.Header().Set("Content-Type", ent.ContentType)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(ent.Body)))
	w.WriteHeader(ent.Status)
	n, _ := w.Write(ent.Body)
	e.smu.Lock()
	e.servedBytes += uint64(n)
	e.smu.Unlock()
}

// shed answers a request no replica could serve: an honest 503 with a
// Retry-After hint, the contract resilient clients back off on.
func (e *Edge) shed(w http.ResponseWriter, reason string) {
	e.smu.Lock()
	e.shedCount++
	e.smu.Unlock()
	dash.WriteShed(w, dash.ShedRetryAfterSec, "edge: "+reason)
}

// sessionOf extracts the client's session identity for forwarding.
func sessionOf(r *http.Request) string {
	return r.Header.Get(dash.SessionIDHeader)
}
