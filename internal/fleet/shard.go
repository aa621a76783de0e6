package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"cava/internal/player"
	"cava/internal/quality"
)

// shard is one worker's slice of the fleet: a contiguous session-id range
// with its own event queue, batch buffer and scalar tallies. Sessions are
// mutually independent, so a shard never reads or writes another shard's
// sessions; the only shared state it touches is immutable (corpus, quality
// tables, Config), atomic (telemetry handles, the progress counter, the
// abort flag) or id-indexed slots it alone owns (the engine's per-session
// sample slices). That makes the shard pass race-free by partition and its
// output independent of scheduling. The checkpoint writer reads a session's
// slots only after the shard has published it finished (session.done), and
// the quarantine records under qmu.
type shard struct {
	e     *Engine
	heap  *eventHeap
	batch []int32
	// stepFn is the stepSession method value, bound once here so the hot
	// drain loop passes a prebuilt func value instead of allocating a
	// closure per batch (the zero-alloc-per-event guard holds per shard).
	stepFn func(int32)
	// stepID is the session currently being stepped, read by recoverStep
	// when a panic unwinds the step mid-session.
	stepID int32
	// stopping is set when advanceSession finds the engine's abort flag
	// at a progress store; the shard then skips the rest of its epoch.
	stopping bool

	events     int64
	publishAt  int64 // events at which advanceSession next stores progress
	maxDoneSec float64
	completed  int

	// quarantined collects the shard's panic-isolated sessions, appended
	// under qmu so the checkpoint writer can copy it while the shard runs;
	// lostEvents is their forfeited remainder of the event budget.
	qmu         sync.Mutex
	quarantined []Quarantine
	lostEvents  int64

	// progress publishes events for the RunContext watchdog, which samples
	// it from the supervisor goroutine. advanceSession stores it once per
	// progressEvents events, inside a batch: one epoch of a large shard
	// runs for seconds. It loads the abort flag there too, so an interrupt
	// or a watchdog stop waits at most that many events, not the epoch.
	// The padding gives it a cache line of its own: shards sit side by
	// side in one slice, and the store must not evict the next shard's hot
	// fields.
	_        [64]byte
	progress atomic.Int64
	_        [56]byte
}

// progressEvents is how many events a shard processes between progress
// stores and abort checks, so the watchdog's view lags by fewer than this
// many events, and a stopped shard steps fewer than this many more.
const progressEvents = 64

// init primes the shard for the session-id range [lo, hi): the event queue
// is preallocated to the shard size and seeded with the range's arrivals.
// The batch buffer holds the whole range, the most one drain round can
// take, since each session has at most one pending event.
func (sh *shard) init(e *Engine, lo, hi int32) {
	size := int(hi - lo)
	sh.e = e
	sh.heap = newEventHeap(lo, hi)
	sh.batch = make([]int32, 0, size)
	sh.stepFn = sh.stepSession
	for id := lo; id < hi; id++ {
		sh.schedule(id, e.sessions[id].arrivalSec)
	}
}

// epochStart is the start of the epoch a wakeup falls in, ⌊wakeSec/Δ⌋·Δ
// with Δ = Engine.epochSec. It is the one place that knows the epoch:
// shard.schedule queues every push at it, and advanceSession keeps a
// session while its next wakeup's epoch is the one being drained.
func (e *Engine) epochStart(wakeSec float64) float64 {
	return math.Floor(wakeSec/e.epochSec) * e.epochSec
}

// schedule queues session id's next step at the start of the epoch its
// wakeup falls in. The queue then holds a whole epoch in its bucket 0, and
// drainInstant hands it out in ascending id, so a shard sweeps its session
// slab and the algorithm objects in address order. Only steps of
// different sessions due less than one epoch apart can swap: a session's
// own steps keep their order, since its wakeups never decrease, and no
// session reads another's state, so every Result is bit-identical to
// stepping each instant alone.
func (sh *shard) schedule(id int32, wakeSec float64) {
	sh.heap.push(event{wakeSec: sh.e.epochStart(wakeSec), id: id})
}

// drain runs the shard to completion, one epoch at a time. It checks the
// engine's abort flag between epochs, and advanceSession checks it inside
// one, returning early when RunContext stops the run; it publishes that
// it finished for the watchdog.
func (sh *shard) drain() {
	for sh.heap.len() > 0 {
		if sh.e.abort.Load() {
			return
		}
		sh.runBatch()
	}
	sh.progress.Store(shardFinished)
}

// runBatch fully drains the earliest pending epoch in one round of
// ascending session id (see drainInstant): each session queued for the
// epoch is visited once, and the visit steps it until its next wakeup
// leaves the epoch.
func (sh *shard) runBatch() {
	sh.batch = drainInstant(sh.heap, sh.batch, sh.stepFn)
}

// stepSession visits one session for the epoch being drained. It is the
// panic isolation boundary: a panic in any of the visit's steps is
// recovered by the deferred recoverStep, which quarantines the offending
// session at that step's chunk, so the shard's drain loop — and the rest
// of the fleet — keeps running. Once the shard is stopping, it skips the
// visit: the session stays unfinished.
func (sh *shard) stepSession(id int32) {
	if sh.stopping {
		return
	}
	sh.stepID = id
	defer sh.recoverStep()
	sh.advanceSession(id)
}

// advanceSession steps session id one chunk event at a time while its next
// wakeup stays in the epoch being drained, then reschedules or finalizes
// it, so a session takes one visit per epoch and finds its slot and
// algorithm warm for every step after the first. A wakeup outside the
// epoch goes through schedule, so an early or NaN one is refused there as
// it always was. The crash hook, the progress store and the abort check
// stay per step.
func (sh *shard) advanceSession(id int32) {
	e := sh.e
	s := &e.sessions[id]
	if !s.started {
		// Lazy start: the algorithm instance is built at the session's
		// first event, so construction cost follows the arrival process
		// instead of front-loading New, and completed sessions can be
		// released while later arrivals are still warming up.
		e.startSession(s)
	}
	for {
		if hook := e.cfg.CrashHook; hook != nil {
			hook(id, s.step.Chunk)
		}
		prevLevel := s.step.PrevLevel
		wakeSec := s.arrivalSec + s.step.Advance(s.tr, s.offsetSec)
		sh.events++
		if sh.events >= sh.publishAt {
			sh.progress.Store(sh.events)
			sh.publishAt = sh.events + progressEvents
			sh.stopping = e.abort.Load()
		}
		e.mEvents.Inc()
		observeChunk(s, e.qts[s.video], prevLevel)
		if s.step.Done() {
			sh.finishSession(id, s)
			return
		}
		if keyOf(e.epochStart(wakeSec)) != sh.heap.floor {
			sh.schedule(id, wakeSec)
			return
		}
		if sh.stopping {
			return // unfinished: a checkpoint writes it as pending
		}
	}
}

// startSession builds session s's algorithm and initializes its step core
// at the session's first event. Only a kept Result or a decision trace
// reads the video label, so the label (a formatted string) is built only
// for them.
func (e *Engine) startSession(s *session) {
	v := e.cfg.Videos[s.video]
	videoID := ""
	if e.cfg.collect || e.cfg.Player.Recorder != nil {
		videoID = v.ID()
	}
	s.step.Init(v, videoID, s.tr.ID, e.cfg.Scheme.New(v), e.cfg.Player, e.cfg.collect)
	s.step.LimitChunks(e.cfg.MaxChunks)
	s.started = true
	e.mActive.Add(1)
}

// recoverStep converts a panic inside the current session's step into a
// quarantine record: the session is retired without rescheduling, its
// unprocessed remainder of the event budget is deducted from the
// accounting, and its per-session state is released. Everything else about
// the run — other sessions, other shards, the final distributions over the
// surviving population — proceeds as if the session never existed past its
// last completed chunk.
func (sh *shard) recoverStep() {
	r := recover()
	if r == nil {
		return
	}
	e := sh.e
	id := sh.stepID
	s := &e.sessions[id]
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	q := Quarantine{
		SessionID: id,
		Chunk:     int(s.chunks),
		Reason:    fmt.Sprint(r),
		Stack:     string(buf),
	}
	sh.qmu.Lock()
	sh.quarantined = append(sh.quarantined, q)
	sh.qmu.Unlock()
	sh.lostEvents += int64(e.chunkBudget(id) - int(s.chunks))
	if s.started {
		e.mActive.Add(-1)
	}
	e.mQuarantined.Inc()
	s.step = player.StepState{}
}

// observeChunk folds the just-completed chunk into the session's online
// aggregates — the fleet-scale replacement for per-chunk records. qt is the
// session's quality table and prevLevel the step core's PrevLevel read
// before the chunk's Advance: the previous chunk's level.
func observeChunk(s *session, qt *quality.Table, prevLevel int) {
	rec := &s.step.Rec
	q := qt.At(rec.Level, rec.Index)
	if s.chunks > 0 {
		if rec.Level != prevLevel {
			s.switches++
		}
		s.qualChangeSum += math.Abs(q - s.lastQual)
	}
	s.lastQual = q
	s.levelSum += int32(rec.Level)
	s.qualSum += q
	s.chunks++
}

// finishSession writes the session's distribution samples into its
// id-indexed slots, publishes the session finished, and releases its
// per-session state (algorithm, step core) back to the collector. It reads
// the step core's running totals directly: only collect builds a Result.
func (sh *shard) finishSession(id int32, s *session) {
	e := sh.e
	startupSec, rebufferSec, totalBits := s.step.Totals()
	lenSec := s.step.NowSec
	doneSec := s.arrivalSec + lenSec
	if doneSec > sh.maxDoneSec {
		sh.maxDoneSec = doneSec
	}
	e.rebufferSec[id] = rebufferSec
	e.startupSec[id] = startupSec
	e.completionSec[id] = doneSec
	e.sessionLenSec[id] = lenSec
	e.dataMB[id] = totalBits / 8 / 1e6
	chunks := float64(max(s.chunks, 1))
	e.avgQuality[id] = s.qualSum / chunks
	e.qualityChange[id] = s.qualChangeSum / chunks
	e.avgLevel[id] = float64(s.levelSum) / chunks
	e.switches[id] = float64(s.switches)
	// The samples and s.chunks are final: the store publishes them to a
	// concurrent checkpoint writer.
	s.done.Store(true)
	sh.completed++
	e.mCompleted.Inc()
	e.mActive.Add(-1)
	if e.cfg.collect {
		e.results[id] = s.step.Take()
		return
	}
	// Drop the algorithm and step state; at fleet scale the
	// arrived-but-unfinished working set is what bounds peak RSS.
	s.step = player.StepState{}
}
