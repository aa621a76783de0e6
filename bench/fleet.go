package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"cava/internal/abr"
	"cava/internal/cliutil"
	"cava/internal/fleet"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/trace"
	"cava/internal/video"
)

// The fleet is kept at 100k full-length sessions, every one live from
// virtual time 0: the live set is then far beyond the last-level cache, and
// a smaller fleet runs each event about 30% cheaper, which would hide any
// layout or working-set change. Full sessions reach the buffer-full waits
// and steady-state decisions a shortened one never does. A rep of 12M
// events takes 14-20 s on two cores, so a run holds one, and its set-up
// (about 0.1 s) is repeated fleetSetups times for a median.
const (
	fleetSessions = 100_000
	fleetSetups   = 5
)

// fleetInputs is the fleet's shared catalog and the 200-trace corpus.
func fleetInputs() ([]*video.Video, []*trace.Trace) {
	videos := []*video.Video{
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi}),
		video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation}),
	}
	return videos, append(trace.GenLTESet(100), trace.GenFCCSet(100)...)
}

// fleetWorkload runs one population of sessions of a scheme through
// fleet.New and Engine.Run.
func fleetWorkload(name, scheme string) func(repConfig) (*repResult, error) {
	return func(cfg repConfig) (*repResult, error) {
		m := newMeter(name, cfg)
		sessions, chunks, setups := fleetSessions, 0, fleetSetups
		if cfg.small {
			sessions, chunks, setups = 2000, 6, 1
		}
		factory, err := cliutil.SchemeByName(scheme)
		if err != nil {
			return nil, err
		}
		p := newProbe(sessions, chunks, cfg.spans)
		// Every session starts at virtual time 0, so the live set peaks
		// once the last algorithm is built; the run allocates nothing
		// after that to trigger a GC, so take one there.
		p.onFull = m.collect
		var e *fleet.Engine
		var assign []float64
		err = m.setupRepeated(setups, func() error {
			videos, traces := fleetInputs()
			t := time.Now()
			var err error
			e, err = fleet.New(fleet.Config{
				Videos: videos, Traces: traces,
				Scheme:   abr.Scheme{Name: scheme, New: p.wrap(factory)},
				Player:   player.DefaultConfig(),
				Sessions: sessions, Workers: cfg.workers,
				RandomTraceOffsets: true, Seed: cfg.seed, MaxChunks: chunks,
			})
			assign = append(assign, time.Since(t).Seconds())
			return err
		})
		m.r.Layer["fleet.assign_s"] = median(assign)
		if err != nil {
			return nil, err
		}
		var res *fleet.Result
		if err := m.run(func() error {
			var err error
			res, err = e.Run()
			return err
		}); err != nil {
			return nil, err
		}
		r := m.r
		r.Sessions = int64(sessions)
		r.Ops = res.Events
		r.Attempted = int64(sessions)
		r.Failed = int64(len(res.Quarantined))
		r.LatencyMs = p.latenciesMs()
		r.Layer["fleet.run_s"] = r.RunSec
		if cfg.spans != nil {
			r.DecideNs = p.decideNs()
		}
		if res.Events != res.ExpectedEvents {
			r.errorf("fleet: %d events, expected %d", res.Events, res.ExpectedEvents)
		}
		if res.Completed != res.Sessions || len(res.Quarantined) > 0 {
			r.errorf("fleet: %d of %d sessions completed, %d quarantined", res.Completed, res.Sessions, len(res.Quarantined))
		}
		if len(r.LatencyMs) != sessions {
			r.errorf("fleet: %d of %d sessions decided their last chunk", len(r.LatencyMs), sessions)
		}
		r.Digest = fleetDigest(res)
		out, err := m.finish(cfg)
		runtime.KeepAlive(e) // the engine counts in the last heap reading
		return out, err
	}
}

// fleetDigest hashes the event count, the virtual horizon and every
// distribution at percentiles 0..100: equal for equal fleets, at any
// worker count.
func fleetDigest(res *fleet.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(res.Events))
	put(math.Float64bits(res.VirtualSec))
	for _, d := range []metrics.Sorted{
		res.RebufferSec, res.StartupDelaySec, res.CompletionSec, res.SessionLenSec,
		res.AvgQuality, res.QualityChange, res.AvgLevel, res.Switches, res.DataMB,
	} {
		for p := 0; p <= 100; p++ {
			put(math.Float64bits(d.Percentile(float64(p))))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
