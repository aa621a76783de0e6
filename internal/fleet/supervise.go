package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ErrInterrupted is returned (wrapped) by RunContext when the context is
// cancelled before the fleet completes. The accompanying Result is the
// partial population — distributions over the sessions that finished —
// and, when RunOptions.CheckpointDir is set, a final checkpoint has been
// written so the run can be resumed.
var ErrInterrupted = errors.New("fleet: run interrupted")

// RunOptions configures a supervised run.
type RunOptions struct {
	// CheckpointDir enables checkpointing: the engine writes an atomic
	// snapshot (CheckpointFile) into this directory every
	// CheckpointEverySec of wall time, while the shards keep draining, and
	// once more when the context is cancelled. Empty disables
	// checkpointing.
	CheckpointDir string
	// CheckpointEverySec is the periodic snapshot interval in wall
	// seconds; non-positive writes only the final on-cancel snapshot.
	// A failed periodic write does not abort the run (the engine may
	// still finish normally); it is counted in
	// fleet_checkpoint_errors_total and the next interval retries.
	CheckpointEverySec float64
	// WatchdogSec fails the run when any unfinished shard makes no event
	// progress for at least this many wall seconds: instead of hanging
	// forever on a livelocked or deadlocked shard, RunContext returns an
	// error carrying per-shard progress and a full goroutine dump.
	// Non-positive disables the watchdog. Detection latency is between
	// one and two intervals (progress is sampled once per interval).
	WatchdogSec float64
}

// RunContext drains every shard, one goroutine each, under a supervisor:
// the run can be checkpointed periodically, interrupted via the context
// (checkpoint-then-return with the partial population), and is watched for
// shards that stop making progress. On cancellation it returns the partial
// Result together with an error wrapping ErrInterrupted. It consumes the
// engine: call it (or Run) once.
func (e *Engine) RunContext(ctx context.Context, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}

	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for i := range e.shards {
		go func(sh *shard) {
			defer wg.Done()
			sh.drain()
		}(&e.shards[i])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var ckptC <-chan time.Time
	if opts.CheckpointDir != "" && opts.CheckpointEverySec > 0 {
		t := time.NewTicker(time.Duration(opts.CheckpointEverySec * float64(time.Second)))
		defer t.Stop()
		ckptC = t.C
	}
	var watchC <-chan time.Time
	lastSeen := make([]int64, len(e.shards))
	for i := range lastSeen {
		lastSeen[i] = -2 // below any real progress value, so tick 1 is a baseline
	}
	if opts.WatchdogSec > 0 {
		t := time.NewTicker(time.Duration(opts.WatchdogSec * float64(time.Second)))
		defer t.Stop()
		watchC = t.C
	}

	for {
		select {
		case <-done:
			return e.merge()

		case <-ctx.Done():
			// Stop the shards at their next batch boundary, so no goroutine
			// outlives the call, then snapshot the stopped engine (when
			// configured).
			e.abort.Store(true)
			<-done
			var ckptErr error
			if opts.CheckpointDir != "" {
				ckptErr = e.writeCheckpoint(opts.CheckpointDir)
			}
			res := e.result()
			if ckptErr != nil {
				return res, fmt.Errorf("%w (final checkpoint failed: %v)", ErrInterrupted, ckptErr)
			}
			return res, ErrInterrupted

		case <-ckptC:
			// A failed write is counted in fleet_checkpoint_errors_total;
			// the run goes on and the next tick retries.
			_ = e.writeCheckpoint(opts.CheckpointDir)

		case <-watchC:
			if stuck := e.stalledShards(lastSeen); len(stuck) > 0 {
				// A stuck shard cannot be stopped from outside; tell the
				// healthy ones to wind down and surface the diagnostic.
				// The caller should treat this as fatal for the process.
				e.abort.Store(true)
				return nil, e.watchdogError(stuck, opts.WatchdogSec)
			}
		}
	}
}

// stalledShards compares each unfinished shard's progress counter against
// the previous watchdog sample, updating lastSeen in place, and returns
// the indexes of shards that processed no events over the interval.
func (e *Engine) stalledShards(lastSeen []int64) []int {
	var stuck []int
	for i := range e.shards {
		p := e.shards[i].progress.Load()
		if p == shardFinished {
			lastSeen[i] = p
			continue
		}
		if p == lastSeen[i] {
			stuck = append(stuck, i)
			continue
		}
		lastSeen[i] = p
	}
	return stuck
}

// watchdogError builds the no-progress diagnostic: which shards stalled,
// every shard's event progress, and a full goroutine dump so the stuck
// frame is identifiable post-mortem.
func (e *Engine) watchdogError(stuck []int, deadlineSec float64) error {
	progress := make([]int64, len(e.shards))
	for i := range e.shards {
		progress[i] = e.shards[i].progress.Load()
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("fleet: watchdog: shard(s) %v made no event progress for %.0f s wall; per-shard events %v; goroutine dump:\n%s",
		stuck, deadlineSec, progress, buf)
}

// shardFinished is the progress-counter sentinel a shard publishes when
// its event queue is drained, so the watchdog stops expecting progress
// from it.
const shardFinished = int64(-1)
