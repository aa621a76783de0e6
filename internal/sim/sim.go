// Package sim runs scheme × video × trace evaluation sweeps in parallel and
// aggregates per-session metric summaries, the machinery behind every table
// and figure reproduction.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// Request describes one sweep.
type Request struct {
	// Videos to stream.
	Videos []*video.Video
	// Traces to replay.
	Traces []*trace.Trace
	// Schemes to compare.
	Schemes []abr.Scheme
	// Config is the shared player configuration.
	Config player.Config
	// Metric is the perceptual metric for QoE accounting (VMAF phone for
	// LTE, VMAF TV for FCC per §6.1).
	Metric quality.Metric
	// Workers bounds parallelism; non-positive uses GOMAXPROCS.
	Workers int
	// PredictorFor optionally supplies a per-session bandwidth predictor
	// (e.g. the §6.7 noisy oracle); nil uses Config.Predictor semantics.
	PredictorFor func(v *video.Video, tr *trace.Trace) player.Config
	// Metrics, when non-nil, receives sweep progress instrumentation:
	// sim_sessions_total, sim_session_errors_total and the
	// sim_jobs_pending gauge, so a long sweep is observable live on
	// /metrics instead of only through its final summary.
	Metrics *telemetry.Registry
	// Cache, when non-nil, memoizes per-video derived artifacts (quality
	// tables, scene classifications) and — for requests whose outcome is
	// fully determined by fingerprintable inputs (see Fingerprint) — the
	// whole sweep result, in memory and optionally on disk. Neither
	// Workers nor Metrics affects results, so neither invalidates a
	// cached sweep.
	Cache *cache.Cache
}

// CellKey identifies one (scheme, video) aggregation cell.
type CellKey struct {
	Scheme string
	Video  string
}

// Results holds all per-session summaries of a sweep, grouped by cell. The
// summaries within a cell are ordered by trace for determinism.
type Results struct {
	// Cells maps (scheme, video) to its per-trace summaries.
	Cells map[CellKey][]metrics.Summary
}

// Summaries returns the cell for a scheme/video pair (nil when absent).
func (r *Results) Summaries(scheme, videoID string) []metrics.Summary {
	return r.Cells[CellKey{Scheme: scheme, Video: videoID}]
}

// SchemeAll concatenates a scheme's summaries across all videos, in video
// order (map iteration order would leak into aggregates otherwise).
func (r *Results) SchemeAll(scheme string) []metrics.Summary {
	var vids []string
	for k := range r.Cells {
		if k.Scheme == scheme {
			vids = append(vids, k.Video)
		}
	}
	sort.Strings(vids)
	var out []metrics.Summary
	for _, v := range vids {
		out = append(out, r.Cells[CellKey{Scheme: scheme, Video: v}]...)
	}
	return out
}

// Run executes the sweep. Every (video, trace, scheme) triple is one
// independent streaming session with a fresh algorithm instance. A session
// failure (invalid video or trace) aborts the sweep and is returned after
// the in-flight sessions drain.
//
// Scheme names and video ids must be unique within a request: results
// are keyed by (scheme name, video id), so a duplicate would merge two
// cells into one. Run rejects them with an error instead.
//
// When req.Cache is set and the request is fingerprintable (see
// Fingerprint), the whole sweep result is memoized: a repeated identical
// request — in this process or, with a disk-backed cache, in a previous
// one — returns the stored result without running any session.
func Run(req Request) (*Results, error) {
	seen := make(map[string]bool, len(req.Schemes))
	for _, sc := range req.Schemes {
		if seen[sc.Name] {
			return nil, fmt.Errorf("sim: duplicate scheme name %q in request", sc.Name)
		}
		seen[sc.Name] = true
	}
	seenVideo := make(map[string]bool, len(req.Videos))
	for _, v := range req.Videos {
		if seenVideo[v.ID()] {
			return nil, fmt.Errorf("sim: duplicate video %q in request", v.ID())
		}
		seenVideo[v.ID()] = true
	}
	if fp, ok := req.Fingerprint(); ok && req.Cache != nil {
		enc, err := cache.GetOrComputeJSON(req.Cache, cache.KindSim, fp, func() (resultsEnc, error) {
			r, err := run(req)
			if err != nil {
				return nil, err
			}
			return encodeResults(r), nil
		})
		if err != nil {
			return nil, err
		}
		return enc.decode(), nil
	}
	return run(req)
}

// run executes the sweep unconditionally.
func run(req Request) (*Results, error) {
	// Each job writes its summary into its own slot of its cell, so every
	// cell is in trace order however the workers interleave.
	type job struct {
		v      *video.Video
		tr     *trace.Trace
		scheme abr.Scheme
		out    *metrics.Summary
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	sessionsTot := req.Metrics.Counter("sim_sessions_total", "sweep sessions completed")
	errorsTot := req.Metrics.Counter("sim_session_errors_total", "sweep sessions that failed")
	pending := req.Metrics.Gauge("sim_jobs_pending", "sweep sessions not yet finished")
	// Add, not Set: concurrent sweeps may share one registry (overlapping
	// experiment runners), and Set would clobber the other sweep's pending
	// count. Every job — completed, failed or skipped after a failure —
	// takes its Add(-1), so the gauge composes across sweeps and returns
	// to zero when all of them finish.
	pending.Add(float64(len(req.Videos) * len(req.Traces) * len(req.Schemes)))

	// Per-video quality tables and classifications, computed once here and
	// at most once per process when a cache is attached (req.Cache may be
	// nil; the helpers then compute directly).
	qts := make(map[string]*quality.Table, len(req.Videos))
	cats := make(map[string][]scene.Category, len(req.Videos))
	for _, v := range req.Videos {
		qts[v.ID()] = req.Cache.QualityTable(v, req.Metric)
		cats[v.ID()] = req.Cache.Categories(v)
	}

	res := &Results{Cells: make(map[CellKey][]metrics.Summary, len(req.Videos)*len(req.Schemes))}
	for _, v := range req.Videos {
		for _, sc := range req.Schemes {
			res.Cells[CellKey{Scheme: sc.Name, Video: v.ID()}] = make([]metrics.Summary, len(req.Traces))
		}
	}
	jobs := make(chan job)

	// The first session error wins; later failures of the same sweep add
	// nothing actionable. Workers keep draining the job channel after a
	// failure (skipping the work) so the producer never blocks.
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed() {
					pending.Add(-1)
					continue
				}
				cfg := req.Config
				if req.PredictorFor != nil {
					cfg = req.PredictorFor(j.v, j.tr)
				}
				algo := j.scheme.New(j.v)
				r, err := player.Simulate(j.v, j.tr, algo, cfg)
				if err != nil {
					errorsTot.Inc()
					pending.Add(-1)
					fail(fmt.Errorf("sim: session (%s, %s, %s): %w",
						j.v.ID(), j.tr.ID, j.scheme.Name, err))
					continue
				}
				s := metrics.Summarize(r, qts[j.v.ID()], cats[j.v.ID()])
				// Cells — and the summaries inside them — carry the sweep's
				// scheme label, not the algorithm's self-reported name: a
				// constructor may name its algorithm differently (or several
				// sweep entries may share one algorithm), and results must
				// stay findable under the label the caller configured.
				s.Scheme = j.scheme.Name
				sessionsTot.Inc()
				pending.Add(-1)
				*j.out = s
			}
		}()
	}
	for _, v := range req.Videos {
		for ti, tr := range req.Traces {
			for _, sc := range req.Schemes {
				cell := res.Cells[CellKey{Scheme: sc.Name, Video: v.ID()}]
				jobs <- job{v: v, tr: tr, scheme: sc, out: &cell[ti]}
			}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
