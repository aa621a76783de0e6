package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// sweepTraces is the trace count of each of the sweep's two requests:
// 16 schemes × 2 requests × 8 traces = 256 sessions, about 1.5 s on two
// cores, so a run holds many reps.
const sweepTraces = 8

// runSweep is the paper's evaluation path: sim.Run over every registry
// scheme on ED-ffmpeg-h264, one request over LTE traces scored with VMAF
// phone and one over FCC traces scored with VMAF TV (§6.1), into a fresh
// disk-backed cache so the sweep runs cold and persists its result. A
// second cache over the same directory must then replay it byte for byte.
func runSweep(cfg repConfig) (*repResult, error) {
	m := newMeter("sweep", cfg)
	n := sweepTraces
	if cfg.small {
		n = 1
	}
	schemes := sim.SchemeAll()
	p := newProbe(2*len(schemes)*n, 0, cfg.spans)
	var reqs []sim.Request
	var dir string
	err := m.setup(func() error {
		v := video.FFmpegVideo(video.OpenTitles[0], video.H264)
		lte := make([]*trace.Trace, n)
		fcc := make([]*trace.Trace, n)
		for i := range lte {
			lte[i] = trace.GenLTE(int(cfg.seed)*1000 + i)
			fcc[i] = trace.GenFCC(int(cfg.seed)*1000 + i)
		}
		wrapped := make([]abr.Scheme, len(schemes))
		for i, sc := range schemes {
			wrapped[i] = abr.Scheme{Name: sc.Name, Key: sc.Key, New: p.wrap(sc.New)}
		}
		var err error
		if dir, err = os.MkdirTemp(cfg.outDir, "sweep-cache-"); err != nil {
			return err
		}
		c := cache.New(cache.WithDir(dir))
		for i, trs := range [][]*trace.Trace{lte, fcc} {
			reqs = append(reqs, sim.Request{
				Videos: []*video.Video{v}, Traces: trs, Schemes: wrapped,
				Config: player.DefaultConfig(), Metric: []quality.Metric{quality.VMAFPhone, quality.VMAFTV}[i],
				Workers: cfg.workers, Cache: c,
			})
		}
		return nil
	})
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}

	cold := make([][]byte, len(reqs))
	err = m.run(func() error {
		for i, req := range reqs {
			res, err := sim.Run(req)
			if err != nil {
				return err
			}
			if cold[i], err = canonical(res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := m.r
	r.Sessions = int64(len(reqs) * len(schemes) * n)
	r.Ops, r.Attempted = r.Sessions, r.Sessions
	r.LatencyMs = p.latenciesMs()
	if len(r.LatencyMs) != int(r.Sessions) {
		r.errorf("sweep: %d of %d sessions decided their last chunk", len(r.LatencyMs), r.Sessions)
	}
	if cfg.spans != nil {
		r.DecideNs = p.decideNs()
		r.Layer["sim.decide_share"] = r.DecideNs / (float64(cfg.workers) * r.RunSec * 1e9)
	}

	// A fresh Cache over the same directory is a later process replaying
	// the persisted sweep: it must run no session and match the cold bytes.
	h := fnv.New64a()
	replay := cache.New(cache.WithDir(dir))
	for i, req := range reqs {
		req.Cache = replay
		res, err := sim.Run(req)
		if err != nil {
			return nil, fmt.Errorf("sweep replay: %w", err)
		}
		for k, ss := range res.Cells {
			if len(ss) != len(req.Traces) {
				r.errorf("sweep: cell %v holds %d summaries for %d traces", k, len(ss), len(req.Traces))
			}
		}
		if got, want := len(res.Cells), len(req.Schemes)*len(req.Videos); got != want {
			r.errorf("sweep: %d cells, want %d", got, want)
		}
		disk, err := canonical(res)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(disk, cold[i]) {
			r.errorf("sweep: request %d replayed from disk differs from the cold result", i)
		}
		h.Write(cold[i])
	}
	if s := replay.Stats(cache.KindSim); s.Misses != 0 {
		r.errorf("sweep: disk replay ran %d sweeps", s.Misses)
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	return m.finish(cfg)
}

// canonical encodes a sweep result with its cells sorted, so equal results
// give equal bytes.
func canonical(res *sim.Results) ([]byte, error) {
	type cell struct {
		Scheme, Video string
		Summaries     []metrics.Summary
	}
	cells := make([]cell, 0, len(res.Cells))
	for k, ss := range res.Cells {
		cells = append(cells, cell{k.Scheme, k.Video, ss})
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].Scheme != cells[b].Scheme {
			return cells[a].Scheme < cells[b].Scheme
		}
		return cells[a].Video < cells[b].Video
	})
	return json.Marshal(cells)
}
