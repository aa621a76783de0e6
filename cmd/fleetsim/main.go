// Command fleetsim runs the discrete-event fleet simulator: N concurrent
// ABR sessions in one process over a shared trace corpus, reporting
// fleet-level QoE distributions and engine throughput.
//
// Every completed run is checked against the fleet contract
// (fleet.Result.Invariants: exact event accounting, no vanished or
// starved session); a violation is reported on stderr and exits 1.
//
// Long runs are crash-tolerant: -checkpoint-dir snapshots the engine
// periodically and on SIGINT/SIGTERM, and -resume restores a run whose
// final output is bit-identical to the uninterrupted one. Even without a
// checkpoint dir, an interrupt drains cleanly and reports the partial
// population to stderr instead of losing all output.
//
// Usage:
//
//	fleetsim -sessions 1000000 -workers 0 -trace-corpus lte:100,fcc:100 -scheme cava
//	fleetsim -sessions 2000 -scheme robustmpc -videos ED-youtube-h264
//	fleetsim -sessions 1000000 -checkpoint-dir /tmp/fleet -checkpoint-every 60
//	fleetsim -sessions 1000000 -checkpoint-dir /tmp/fleet -resume
//	fleetsim -arrival 0 -max-chunks 40           (the checked fleet, all at once)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cava/internal/abr"
	"cava/internal/cliutil"
	"cava/internal/fleet"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/video"
)

func main() {
	var (
		sessions   = flag.Int("sessions", 10000, "fleet size (concurrent sessions)")
		arrival    = flag.Float64("arrival", 50, "session arrival rate per virtual second (0: all at once)")
		corpusSpec = flag.String("trace-corpus", "lte:40,fcc:20", "trace corpus: lte:<n>,fcc:<n>,const:<mbps>,mahimahi:<path>")
		schemeName = flag.String("scheme", "cava", "adaptation scheme (see cava-sim -list-schemes)")
		videoIDs   = flag.String("videos", "ED-youtube-h264,BBB-youtube-h264", "comma-separated dataset video ids")
		workers    = flag.Int("workers", 0, "event-loop shards/worker goroutines (0: all cores); results are identical for every value")
		seed       = flag.Int64("seed", 1, "seed for corpus assignment, offsets and arrivals")
		maxChunks  = flag.Int("max-chunks", 0, "truncate each session after this many chunks (0: full video)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for engine checkpoints: written periodically and on SIGINT/SIGTERM, read by -resume")
		ckptEvery  = flag.Float64("checkpoint-every", 60, "seconds between periodic checkpoints (with -checkpoint-dir; 0: only on interrupt)")
		resumeRun  = flag.Bool("resume", false, "restore the run from -checkpoint-dir instead of starting fresh (same flags, any -workers)")
		watchdog   = flag.Float64("watchdog", 0, "fail the run when any shard makes no event progress for this many wall seconds (0: disabled)")
	)
	flag.Parse()

	videos, err := resolveVideos(*videoIDs)
	if err != nil {
		fail(err)
	}
	traces, err := cliutil.ParseCorpus(*corpusSpec)
	if err != nil {
		fail(err)
	}
	factory, err := cliutil.SchemeByName(*schemeName)
	if err != nil {
		fail(err)
	}

	cfg := fleet.Config{
		Videos:             videos,
		Traces:             traces,
		Scheme:             abr.Scheme{Name: *schemeName, New: factory},
		Player:             player.DefaultConfig(),
		Sessions:           *sessions,
		Workers:            *workers,
		ArrivalRatePerSec:  *arrival,
		RandomTraceOffsets: true,
		Seed:               *seed,
		MaxChunks:          *maxChunks,
	}
	var e *fleet.Engine
	if *resumeRun {
		if *ckptDir == "" {
			fail(errors.New("-resume requires -checkpoint-dir"))
		}
		if e, err = fleet.Resume(cfg, *ckptDir); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fleetsim: resumed from %s\n", fleet.CheckpointPath(*ckptDir))
	} else if e, err = fleet.New(cfg); err != nil {
		fail(err)
	}

	// SIGINT/SIGTERM cancel the run's context: the engine quiesces at a
	// batch boundary, checkpoints when a dir is configured, and returns
	// the partial population — a kill no longer loses all output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, runErr := e.RunContext(ctx, fleet.RunOptions{
		CheckpointDir:      *ckptDir,
		CheckpointEverySec: *ckptEvery,
		WatchdogSec:        *watchdog,
	})
	wallSec := time.Since(start).Seconds()
	if runErr != nil && !errors.Is(runErr, fleet.ErrInterrupted) {
		fail(runErr)
	}

	if errors.Is(runErr, fleet.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", runErr)
		fmt.Fprintf(os.Stderr, "fleetsim: partial population: %d of %d sessions completed at interrupt\n",
			res.Completed, res.Sessions)
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "fleetsim: checkpoint at %s — continue with -resume -checkpoint-dir %s\n",
				fleet.CheckpointPath(*ckptDir), *ckptDir)
		}
		_ = summarize(os.Stderr, res, *schemeName, len(videos), len(traces), *arrival, *seed, *workers, wallSec)
		reportQuarantines(res)
		os.Exit(1)
	}

	if err := summarize(os.Stdout, res, *schemeName, len(videos), len(traces), *arrival, *seed, *workers, wallSec); err != nil {
		fail(err)
	}
	reportQuarantines(res)
	if errs := res.Invariants(cfg); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "fleetsim: invariant violated: %v\n", e)
		}
		os.Exit(1)
	}
}

// summarize prints the run header, engine throughput and the per-session
// QoE distribution table. It serves both the stdout happy path and the
// stderr partial-population path, where the distributions cover only the
// sessions that finished before the interrupt. Write errors latch in the
// buffered writer and surface from the final Flush.
func summarize(out io.Writer, res *fleet.Result, schemeName string, nVideos, nTraces int,
	arrival float64, seed int64, workers int, wallSec float64) error {
	shards := workers
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "fleet: %d sessions (%s), %d videos × %d traces, arrival %g/s, seed %d\n",
		res.Sessions, schemeName, nVideos, nTraces, arrival, seed)
	fmt.Fprintf(w, "engine: %d events in %.2f s wall — %.0f events/s, %.0f sessions/s (%d workers, GOMAXPROCS %d)\n",
		res.Events, wallSec, float64(res.Events)/wallSec, float64(res.Sessions)/wallSec, shards, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "virtual horizon: %.0f s (last completion)\n\n", res.VirtualSec)

	fmt.Fprintf(w, "%-16s %10s %10s %10s %10s\n", "per-session", "p10", "p50", "p90", "p99")
	row := func(name string, s metrics.Sorted) {
		fmt.Fprintf(w, "%-16s %10.2f %10.2f %10.2f %10.2f\n",
			name, s.Percentile(10), s.Percentile(50), s.Percentile(90), s.Percentile(99))
	}
	row("rebuffer (s)", res.RebufferSec)
	row("startup (s)", res.StartupDelaySec)
	row("avg quality", res.AvgQuality)
	row("qual change", res.QualityChange)
	row("avg level", res.AvgLevel)
	row("switches", res.Switches)
	row("data (MB)", res.DataMB)
	row("session (s)", res.SessionLenSec)
	return w.Flush()
}

// reportQuarantines surfaces panic-isolated sessions on stderr: the run
// completed around them, but their absence from the distributions should
// never be silent.
func reportQuarantines(res *fleet.Result) {
	if len(res.Quarantined) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "fleetsim: %d session(s) quarantined by panic isolation (excluded from distributions):\n",
		len(res.Quarantined))
	for _, q := range res.Quarantined {
		fmt.Fprintf(os.Stderr, "  session %d at chunk %d: %s\n", q.SessionID, q.Chunk, q.Reason)
	}
}

// resolveVideos maps comma-separated dataset ids to videos.
func resolveVideos(spec string) ([]*video.Video, error) {
	var out []*video.Video
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		v := video.ByID(id)
		if v == nil {
			return nil, fmt.Errorf("unknown video %q (try cava-sim -list-videos)", id)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no videos in %q", spec)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
	os.Exit(2)
}
