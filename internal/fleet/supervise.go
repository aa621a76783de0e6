package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// CheckpointEverySec of wall time and once more when the context is
	// cancelled. Empty disables checkpointing. Requires Collect off (the
	// snapshot holds per-session aggregates, not per-chunk records).
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

// control coordinates a supervised run between the supervisor and the
// shard goroutines: checkpoint barriers (pause every shard at a batch
// boundary, snapshot the quiescent engine, resume) and cooperative abort.
// The no-pause fast path costs the shards one atomic load per batch.
type control struct {
	pause atomic.Bool
	abort atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	active int    // shards still draining (parked or running)
	parked int    // shards waiting at the barrier
	gen    uint64 // barrier generation, bumped by each resume
}

func newControl(active int) *control {
	c := &control{active: active}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// gate is the shards' per-batch check: a single atomic load when nothing
// is requested; when a pause is requested, park at the barrier until the
// supervisor resumes. Returns false when the run is aborting and the
// shard must stop draining.
func (c *control) gate() bool {
	if c.abort.Load() {
		return false
	}
	if !c.pause.Load() {
		return true
	}
	c.mu.Lock()
	c.parked++
	gen := c.gen
	c.cond.Broadcast() // wake the supervisor waiting for full quiescence
	for c.gen == gen {
		c.cond.Wait()
	}
	c.parked--
	c.cond.Broadcast() // wake resumeAll waiting for the barrier to drain
	c.mu.Unlock()
	return !c.abort.Load()
}

// shardDone retires one shard that drained its event queue to completion.
func (c *control) shardDone() {
	c.mu.Lock()
	c.active--
	c.cond.Broadcast()
	c.mu.Unlock()
}

// pauseAll requests a pause and blocks until every still-active shard is
// parked at the barrier (or has finished), leaving the engine quiescent:
// no shard is inside a batch, so all per-session state is safe to read
// from the supervisor (the barrier's mutex publishes it).
func (c *control) pauseAll() {
	c.pause.Store(true)
	c.mu.Lock()
	for c.parked < c.active {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// resumeAll releases a pause and blocks until every shard parked at the
// released barrier has left it. Without the drain, a pauseAll issued
// immediately after (e.g. a pending ctx.Done selected right after a
// periodic checkpoint) could observe parked >= active while the counts
// still belong to the previous generation, report quiescence while the
// woken shards run batches, and let writeCheckpoint race shard state.
func (c *control) resumeAll() {
	c.mu.Lock()
	c.pause.Store(false)
	c.gen++
	c.cond.Broadcast()
	for c.parked > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// abortAll makes every subsequent gate call return false. Combined with
// resumeAll it releases parked shards straight into an early return.
func (c *control) abortAll() {
	c.abort.Store(true)
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
	if opts.CheckpointDir != "" && e.cfg.Collect {
		return nil, fmt.Errorf("fleet: checkpointing requires Collect off (per-chunk records are not snapshotted)")
	}

	ctl := newControl(len(e.shards))
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for i := range e.shards {
		go func(sh *shard) {
			defer wg.Done()
			sh.drain(ctl)
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
			// Quiesce, snapshot (when configured), then release the shards
			// straight into an early return so no goroutine outlives the
			// call.
			ctl.pauseAll()
			var ckptErr error
			if opts.CheckpointDir != "" {
				if ckptErr = e.writeCheckpoint(opts.CheckpointDir); ckptErr != nil {
					e.mCkptErrors.Inc()
				} else {
					e.mCkptWritten.Inc()
				}
			}
			ctl.abortAll()
			ctl.resumeAll()
			<-done
			res := e.result()
			if ckptErr != nil {
				return res, fmt.Errorf("%w (final checkpoint failed: %v)", ErrInterrupted, ckptErr)
			}
			return res, ErrInterrupted

		case <-ckptC:
			ctl.pauseAll()
			err := e.writeCheckpoint(opts.CheckpointDir)
			ctl.resumeAll()
			if err != nil {
				e.mCkptErrors.Inc()
			} else {
				e.mCkptWritten.Inc()
			}
			// Shards were parked while the snapshot was written; a slow
			// write can outlast WatchdogSec and leave a buffered watchdog
			// tick pending. Forget the progress baselines so that tick
			// re-baselines instead of failing a healthy run for "no
			// progress" it was never allowed to make.
			for i := range lastSeen {
				lastSeen[i] = -2
			}

		case <-watchC:
			if stuck := e.stalledShards(lastSeen); len(stuck) > 0 {
				// A stuck shard cannot be stopped from outside; tell the
				// healthy ones to wind down and surface the diagnostic.
				// The caller should treat this as fatal for the process.
				ctl.abortAll()
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
