package cava_test

import (
	"runtime"
	"testing"
	"time"

	"cava/internal/abr"
	"cava/internal/cliutil"
	"cava/internal/fleet"
	"cava/internal/player"
	"cava/internal/trace"
	"cava/internal/video"
)

// benchFleetPoint is one CAVA scaling point of the fleet benchmark.
type benchFleetPoint struct {
	Sessions       int
	Workers        int
	Events         int64
	WallSec        float64
	EventsPerSec   float64
	SessionsPerSec float64
}

// TestFleetBench is the fleet engine's throughput and scaling gate. Full
// mode runs full-length sessions over the full 200-trace corpus
// (lte:100,fcc:100): a 1-worker 100k baseline and a multi-worker 100k
// point, which must keep the per-worker sessions/sec floor and scale near
// linearly in workers. Short mode (wired into `make check`) runs a reduced
// multi-worker point under the same per-worker floor. Every session
// arrives at virtual time 0, so the fleet size IS the concurrency. The
// measured numbers live in the benchmark harness (bench/), not here.
func TestFleetBench(t *testing.T) {
	cavaFactory, err := cliutil.SchemeByName("cava")
	if err != nil {
		t.Fatal(err)
	}
	videos := []*video.Video{
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi}),
		video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation}),
	}
	// The full 200-trace corpus the paper-scale experiments use, not the
	// reduced 60-trace mix earlier revisions benchmarked.
	traces := make([]*trace.Trace, 0, 200)
	traces = append(traces, trace.GenLTESet(100)...)
	traces = append(traces, trace.GenFCCSet(100)...)

	run := func(sessions, maxChunks, workers int) benchFleetPoint {
		start := time.Now()
		res, err := fleet.Run(fleet.Config{
			Videos:             videos,
			Traces:             traces,
			Scheme:             abr.Scheme{Name: "cava", New: cavaFactory},
			Player:             player.DefaultConfig(),
			Sessions:           sessions,
			Workers:            workers,
			RandomTraceOffsets: true,
			Seed:               1,
			MaxChunks:          maxChunks,
		})
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		p := benchFleetPoint{
			Sessions: sessions, Workers: workers,
			Events: res.Events, WallSec: wall,
			EventsPerSec:   float64(res.Events) / wall,
			SessionsPerSec: float64(sessions) / wall,
		}
		t.Logf("cava × %d sessions, %d workers: %d events, %.2f s wall, %.0f events/s, %.0f sessions/s",
			p.Sessions, p.Workers, p.Events, p.WallSec, p.EventsPerSec, p.SessionsPerSec)
		return p
	}

	// The floor is deliberately conservative (CAVA decisions, full session
	// semantics): a regression that serializes allocation or re-derives
	// per-chunk state would land far below it. It is per worker, so the
	// gate is meaningful on any core count.
	const sessionsPerSecPerWorkerFloor = 200.0

	if testing.Short() {
		p := run(5000, 60, 0)
		// Short-mode sessions run 60 chunks vs ~120 full-length, so the
		// per-worker floor doubles.
		if perWorker := p.SessionsPerSec / float64(p.Workers); perWorker < 2*sessionsPerSecPerWorkerFloor {
			t.Errorf("fleet throughput %.0f sessions/s/worker below the %.0f floor",
				perWorker, 2*sessionsPerSecPerWorkerFloor)
		}
		return
	}

	baseline := run(100_000, 0, 1)
	headline := run(100_000, 0, 0)

	if perWorker := headline.SessionsPerSec / float64(headline.Workers); perWorker < sessionsPerSecPerWorkerFloor {
		t.Errorf("fleet throughput %.0f sessions/s/worker below the %.0f floor",
			perWorker, sessionsPerSecPerWorkerFloor)
	}
	speedup := headline.EventsPerSec / baseline.EventsPerSec
	perWorkerSpeedup := speedup / float64(headline.Workers)
	t.Logf("100k @ %d workers vs 100k @ 1 worker: %.2fx events/s (%.2fx per worker)",
		headline.Workers, speedup, perWorkerSpeedup)
	// Near-linear gate with slack for cache pressure and scheduling noise.
	if perWorkerSpeedup < 0.5 {
		t.Errorf("per-worker speedup %.2fx at the headline point is below 0.5x the 1-worker 100k baseline — sharding is not scaling", perWorkerSpeedup)
	}
}
