package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/cache"
	"cava/internal/cliutil"
	"cava/internal/core"
	"cava/internal/dash"
	"cava/internal/edge"
	"cava/internal/fleet"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// Sinks keep timed results alive so the compiler cannot drop the calls.
var (
	sinkF float64
	sinkI int
	sinkA any
)

// memInstances is how many instances a per-component memory reading
// averages over.
const memInstances = 10_000

// runLayers times every layer alone, with fixed iteration counts on inputs
// shaped like the workloads' (the fleet's ED YouTube encode and trace
// corpus, the sweep's ED FFmpeg encode and seeded LTE trace), and
// attributes live heap to the components of a fleet session. Each timing
// is the median over batches of the mean cost per call.
func runLayers(seed int64, outDir string) (map[string]float64, error) {
	out := map[string]float64{}
	ed := video.Title{Name: "ED", Genre: video.SciFi}
	yt := video.YouTubeVideo(ed)
	ff := video.FFmpegVideo(video.OpenTitles[0], video.H264)
	first := int(seed) * 1000
	lte := trace.GenLTE(first)

	// Set-up layers.
	out["video.generate_us"] = timeOp(5, 10, func(int) { sinkA = video.YouTubeVideo(ed) }) / 1e3
	out["trace.gen_lte_us"] = timeOp(5, 20, func(i int) { sinkA = trace.GenLTE(first + i) }) / 1e3
	out["trace.gen_fcc_us"] = timeOp(5, 20, func(i int) { sinkA = trace.GenFCC(first + i) }) / 1e3
	out["quality.new_table_us"] = timeOp(5, 20, func(int) { sinkA = quality.NewTable(yt, quality.VMAFTV) }) / 1e3
	out["scene.classify_us"] = timeOp(5, 50, func(int) { sinkA = scene.ClassifyDefault(yt) }) / 1e3

	// Per-event layers, on fleet-shaped arguments.
	_, traces := fleetInputs()
	rng := rand.New(rand.NewSource(seed))
	const nArgs = 4096
	trs := make([]*trace.Trace, nArgs)
	offs, bits, secs := make([]float64, nArgs), make([]float64, nArgs), make([]float64, nArgs)
	for i := range trs {
		trs[i] = traces[rng.Intn(len(traces))]
		offs[i] = rng.Float64() * trs[i].Duration()
		bits[i] = yt.ChunkSize(rng.Intn(yt.NumTracks()), rng.Intn(yt.NumChunks()))
		secs[i] = 0.2 + 4*rng.Float64()
	}
	out["trace.download_time_ns"] = timeOp(5, 100_000, func(i int) {
		k := i % nArgs
		sinkF += trs[k].DownloadTime(offs[k], bits[k])
	})
	pred := bandwidth.NewHarmonicMean(bandwidth.DefaultWindow)
	out["bandwidth.observe_predict_ns"] = timeOp(5, 100_000, func(i int) {
		k := i % nArgs
		pred.ObserveDownload(bits[k], secs[k])
		sinkF += pred.Predict(0)
	})

	// Decisions: every scheme replays a session it decided itself.
	var summaries []metrics.Summary
	qt, cats := quality.NewTable(ff, quality.VMAFPhone), scene.ClassifyDefault(ff)
	for _, sc := range sim.SchemeAll() {
		ns, res, err := selectNs(sc.New, ff, lte)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		out["abr.select_ns."+sc.Name] = ns
		summaries = append(summaries, metrics.Summarize(res, qt, cats))
	}
	allocs := 0.0
	for _, name := range []string{"cava", "bba1"} {
		f, err := cliutil.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		out["abr.new_us."+name] = timeOp(5, 200, func(int) { sinkA = f(yt) }) / 1e3
		ns, a := advanceNs(f, yt, traces, seed)
		out["player.advance_ns."+name] = ns
		allocs = max(allocs, a)
	}
	out["player.advance_allocs"] = allocs

	// Whole sessions.
	var simErr error
	out["player.simulate_us.cava"] = timeOp(5, 4, func(int) {
		if _, err := player.Simulate(ff, lte, core.New(ff), player.DefaultConfig()); err != nil {
			simErr = err
		}
	}) / 1e3
	if simErr != nil {
		return nil, simErr
	}
	res, err := player.Simulate(ff, lte, core.New(ff), player.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out["metrics.summarize_us"] = timeOp(5, 100, func(int) { sinkA = metrics.Summarize(res, qt, cats) }) / 1e3

	if err := cacheLayers(out, summaries, outDir); err != nil {
		return nil, err
	}
	if err := edgeLayers(out, rng); err != nil {
		return nil, err
	}
	if err := dashLayers(out, ff); err != nil {
		return nil, err
	}
	if err := memLayers(out, yt, seed); err != nil {
		return nil, err
	}
	return out, nil
}

// timeOp runs fn ops times per batch and returns the median over batches
// of the mean ns per call.
func timeOp(batches, ops int, fn func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < ops; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// decision is one recorded call into an algorithm.
type decision struct {
	st    abr.State
	delay bool
}

// capture records the calls a session makes into its algorithm. It always
// offers Delay; for an algorithm that does not pause it answers 0, which
// the player treats exactly like an algorithm without Delay.
type capture struct {
	inner   abr.Algorithm
	d       abr.Delayer
	calls   []decision
	selects int
}

func (c *capture) Name() string { return c.inner.Name() }

func (c *capture) Select(st abr.State) int {
	c.calls = append(c.calls, decision{st: st})
	c.selects++
	return c.inner.Select(st)
}

func (c *capture) Delay(st abr.State) float64 {
	if c.d == nil {
		return 0
	}
	c.calls = append(c.calls, decision{st: st, delay: true})
	return c.d.Delay(st)
}

// selectNs records one session of a scheme, replays its calls in order on
// fresh instances, and returns the median cost per chunk decided: Select,
// plus the Delay query for schemes that pause.
func selectNs(f abr.Factory, v *video.Video, tr *trace.Trace) (float64, *player.Result, error) {
	rec := &capture{inner: f(v)}
	rec.d, _ = rec.inner.(abr.Delayer)
	res, err := player.Simulate(v, tr, rec, player.DefaultConfig())
	if err != nil {
		return 0, nil, err
	}
	per := make([]float64, 5)
	for b := range per {
		a := f(v)
		d, _ := a.(abr.Delayer)
		start := time.Now()
		for _, c := range rec.calls {
			if c.delay {
				sinkF += d.Delay(c.st)
			} else {
				sinkI += a.Select(c.st)
			}
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(rec.selects)
	}
	return median(per), res, nil
}

// advanceNs returns the median cost of one StepState.Advance without chunk
// records, as the fleet runs it (random trace offsets, whole sessions),
// and the whole heap allocations per Advance, counted the way
// testing.AllocsPerRun counts them.
func advanceNs(f abr.Factory, v *video.Video, traces []*trace.Trace, seed int64) (ns, allocs float64) {
	rng := rand.New(rand.NewSource(seed))
	const sessions = 100
	per := make([]float64, 5)
	var events, allocated uint64
	var before, after runtime.MemStats
	for b := range per {
		ss := make([]player.StepState, sessions)
		trs := make([]*trace.Trace, sessions)
		offs := make([]float64, sessions)
		for i := range ss {
			trs[i] = traces[rng.Intn(len(traces))]
			offs[i] = rng.Float64() * trs[i].Duration()
			ss[i].Init(v, v.ID(), trs[i].ID, f(v), player.DefaultConfig(), false)
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		n := 0
		for i := range ss {
			for !ss[i].Done() {
				ss[i].Advance(trs[i], offs[i])
				n++
			}
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&after)
		allocated += after.Mallocs - before.Mallocs
		events += uint64(n)
	}
	return median(per), float64(allocated / events)
}

// cacheLayers times an in-memory hit, and a disk write and a disk hit of a
// value shaped like one sweep request's result.
func cacheLayers(out map[string]float64, summaries []metrics.Summary, outDir string) error {
	type cell struct {
		Scheme, Video string
		Summaries     []metrics.Summary
	}
	payload := make([]cell, len(summaries))
	for i, s := range summaries {
		ss := make([]metrics.Summary, sweepTraces)
		for k := range ss {
			ss[k] = s
		}
		payload[i] = cell{s.Scheme, s.VideoID, ss}
	}
	compute := func() ([]cell, error) { return payload, nil }

	mem := cache.New()
	if _, err := cache.GetOrComputeJSON(mem, cache.KindSim, "0", compute); err != nil {
		return err
	}
	out["cache.mem_hit_ns"] = timeOp(5, 20_000, func(int) { sinkA, _ = cache.GetOrComputeJSON(mem, cache.KindSim, "0", compute) })

	dir, err := os.MkdirTemp(outDir, "layers-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const n = 5
	writes, reads := make([]float64, n), make([]float64, n)
	errMissing := errors.New("entry not on disk")
	for i := range writes {
		c := cache.New(cache.WithDir(dir))
		t := time.Now()
		if _, err := cache.GetOrComputeJSON(c, cache.KindSim, fmt.Sprintf("%016x", i), compute); err != nil {
			return err
		}
		writes[i] = float64(time.Since(t)) / 1e6
	}
	for i := range reads {
		c := cache.New(cache.WithDir(dir))
		t := time.Now()
		if _, err := cache.GetOrComputeJSON(c, cache.KindSim, fmt.Sprintf("%016x", i), func() ([]cell, error) { return nil, errMissing }); err != nil {
			return fmt.Errorf("disk hit: %w", err)
		}
		reads[i] = float64(time.Since(t)) / 1e6
	}
	out["cache.disk_write_ms"] = median(writes)
	out["cache.disk_hit_ms"] = median(reads)
	return nil
}

// edgeLayers times the segment cache's hit path on the edge-hot working
// set, its miss-and-evict path under edge-churn's byte budget, and the
// hash ring's origin order.
func edgeLayers(out map[string]float64, rng *rand.Rand) error {
	body := make([]byte, 80<<10)
	fill := func() (edge.Entry, error) { return edge.Entry{Body: body, Status: http.StatusOK}, nil }
	hot := edge.NewSegCache(edgeHotCacheBytes)
	keys := make([]string, 3*3*40)
	for i := range keys {
		keys[i] = fmt.Sprintf("/v/title%d/seg/%d/%d", i/120, i/40%3, i%40)
		if _, _, err := hot.GetOrFetch(keys[i], fill); err != nil {
			return err
		}
	}
	seq := make([]string, 4096)
	for i, rank := range zipfRequests(len(seq), len(keys), rng) {
		seq[i] = keys[rank]
	}
	out["edge.segcache_hit_ns"] = timeOp(5, 100_000, func(i int) { sinkA, _, _ = hot.GetOrFetch(seq[i%len(seq)], fill) })
	if s := hot.Stats(); s.Misses != uint64(len(keys)) {
		return fmt.Errorf("segment cache hit path missed %d times", s.Misses-uint64(len(keys)))
	}

	big := make([]byte, 400<<10)
	churn := edge.NewSegCache(edgeChurnCacheBytes)
	const batches, ops = 5, 10_000
	cold := make([]string, batches*ops)
	for i := range cold {
		cold[i] = fmt.Sprintf("/v/cold/seg/%d", i)
	}
	next := 0
	out["edge.segcache_miss_evict_ns"] = timeOp(batches, ops, func(int) {
		sinkA, _, _ = churn.GetOrFetch(cold[next], func() (edge.Entry, error) { return edge.Entry{Body: big, Status: http.StatusOK}, nil })
		next++
	})

	ring, err := edge.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}, edge.DefaultVNodes)
	if err != nil {
		return err
	}
	ids := []string{"ED-ffmpeg-h264", "BBB-ffmpeg-h264", "ToS-ffmpeg-h264"}
	out["edge.ring_order_ns"] = timeOp(5, 100_000, func(i int) { sinkI += ring.Order(ids[i%len(ids)])[0] })
	return nil
}

// dashLayers times the origin handler writing the segment closest to 1 MB,
// and the same segment fetched over a loopback keep-alive connection.
func dashLayers(out map[string]float64, v *video.Video) error {
	track, idx, best := 0, 0, -1.0
	for t := 0; t < v.NumTracks(); t++ {
		for i := 0; i < v.NumChunks(); i++ {
			if d := math.Abs(v.ChunkSize(t, i) - 8e6); best < 0 || d < best {
				track, idx, best = t, i, d
			}
		}
	}
	want := int64(int(v.ChunkSize(track, idx)+7) / 8)
	h := dash.NewServer(v).Handler()
	path := dash.SegmentURL(track, idx)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardWriter{header: http.Header{}}
	out["dash.segment_serve_us"] = timeOp(5, 200, func(int) {
		w.reset()
		h.ServeHTTP(w, req)
	}) / 1e3
	if w.status != http.StatusOK || w.n != want {
		return fmt.Errorf("segment handler wrote status %d, %d bytes, want 200, %d", w.status, w.n, want)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := &http.Client{Transport: &http.Transport{}}
	defer cl.CloseIdleConnections()
	buf := make([]byte, 32<<10)
	var fetchErr error
	out["dash.loopback_fetch_us"] = timeOp(5, 200, func(int) {
		if f := fetch(cl, srv.URL+path, "", want, buf); f.err != nil {
			fetchErr = f.err
		}
	}) / 1e3
	return fetchErr
}

// discardWriter is an http.ResponseWriter that counts and drops the body.
type discardWriter struct {
	header http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(status int) { d.status = status }

func (d *discardWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(p))
	return len(p), nil
}

func (d *discardWriter) reset() {
	clear(d.header)
	d.status, d.n = 0, 0
}

// memLayers attributes live heap to the components of one fleet session:
// an initialized StepState with its algorithm and predictor, the algorithm
// alone, the predictor alone, and the fleet's own per-session slot (the
// fleet.New heap divided by its sessions; algorithms are built later, at
// each session's first event).
func memLayers(out map[string]float64, v *video.Video, seed int64) error {
	for _, name := range []string{"cava", "bba1"} {
		f, err := cliutil.SchemeByName(name)
		if err != nil {
			return err
		}
		out["mem.algo_bytes."+name] = liveBytesPer(func() any { return f(v) })
		out["mem.session_bytes."+name] = liveBytesPer(func() any {
			s := new(player.StepState)
			s.Init(v, v.ID(), "trace", f(v), player.DefaultConfig(), false)
			return s
		})
	}
	out["mem.predictor_bytes"] = liveBytesPer(func() any { return bandwidth.NewHarmonicMean(bandwidth.DefaultWindow) })

	videos, traces := fleetInputs()
	f, err := cliutil.SchemeByName("cava")
	if err != nil {
		return err
	}
	runtime.GC()
	before := liveHeapBytes()
	e, err := fleet.New(fleet.Config{
		Videos: videos, Traces: traces, Scheme: abr.Scheme{Name: "cava", New: f},
		Player: player.DefaultConfig(), Sessions: fleetSessions,
		RandomTraceOffsets: true, Seed: seed,
	})
	if err != nil {
		return err
	}
	runtime.GC()
	out["mem.fleet_slot_bytes"] = (liveHeapBytes() - before) / fleetSessions
	runtime.KeepAlive(e)
	return nil
}

// liveBytesPer returns the live heap each of memInstances instances adds.
func liveBytesPer(build func() any) float64 {
	keep := make([]any, memInstances)
	runtime.GC()
	before := liveHeapBytes()
	for i := range keep {
		keep[i] = build()
	}
	runtime.GC()
	after := liveHeapBytes()
	runtime.KeepAlive(keep)
	return (after - before) / memInstances
}
