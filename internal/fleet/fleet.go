// Package fleet is the discrete-event fleet simulator: up to a million
// concurrent ABR streaming sessions in one process, driven by per-shard
// monotone radix heaps of (session, wakeup) events over virtual time.
//
// Where the chaos harness proves the stack survives N goroutine-per-client
// sessions with real sockets (N in the low hundreds), the fleet engine
// answers the scale question the paper's trace-driven methodology implies:
// what do QoE, rebuffering and switching look like across an entire
// population? Every session runs the same player.StepState core as
// player.Simulate, the live and shared-link simulators and the DASH testbed
// client — one simulator, five frontends — so a one-session fleet
// reproduces player.Simulate exactly
// (see TestFleetEquivalence).
//
// Scale comes from four properties:
//
//   - shared immutable data: all sessions read the same video ladders and
//     bandwidth traces, each at its own per-session trace offset (staggered
//     arrivals, wraparound past the corpus end), so a live session costs
//     its slot of at most 416 B (pinned by TestFleetSessionFootprint) plus
//     its algorithm instance, not a copy of the corpus;
//   - an allocation-free event loop: with chunk retention off and a nil
//     recorder, advancing a session performs zero allocations (guarded by
//     TestFleetZeroAllocPerEvent, which holds per shard), and each shard's
//     event queue draws its buckets from one block pool preallocated to
//     the shard size;
//   - epoch batches: a shard queues each wakeup at the start of its epoch,
//     a stretch of virtual time one chunk duration long (the catalog's
//     shortest), and drains a whole epoch at a time in one round of
//     ascending session id, which a bitmap over the shard's id range
//     orders (see shard.schedule and drainInstant). Each session due in
//     the epoch is visited once and stepped until its next wakeup leaves
//     the epoch, so one epoch is one sweep of the shard's session slab and
//     algorithm objects in address order, and an event finds its slot and
//     algorithm by a sequential walk instead of a random one (pinned by
//     TestFleetEpochSchedule). No session reads another's state, so only
//     the order of different sessions' steps changes, never a result;
//   - sharding: sessions are mutually independent, so the event loop
//     partitions by session id into Config.Workers shards that run
//     concurrently, one event queue per shard. The seeded assignment pass stays
//     sequential and per-shard outputs are written to id-indexed slices,
//     so the Result is bit-identical for every worker count
//     (TestFleetShardEquivalence).
//
// Every run is a pure function of Config (seeded rand only, no wall
// clock); the package sits in abrlint's determinism and units analyzer
// sets.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// Config describes one fleet run. Videos, Traces and Scheme are required;
// zero values elsewhere select the documented defaults.
type Config struct {
	// Videos is the shared content catalog; each session streams one,
	// assigned by the seeded rng.
	Videos []*video.Video
	// Traces is the shared bandwidth corpus; each session replays one,
	// assigned by the seeded rng.
	Traces []*trace.Trace
	// Scheme is the adaptation algorithm every session runs (one fresh
	// instance per session, built lazily at the session's first event).
	// The factory must be safe for concurrent calls, the same contract
	// sim.Run's worker pool already imposes on every roster scheme.
	Scheme abr.Scheme
	// Player is the shared player configuration (§6.1 defaults when zero).
	Player player.Config
	// Sessions is the fleet size (0 is a valid empty fleet).
	Sessions int
	// Workers is the shard count: sessions are partitioned by id into
	// Workers contiguous shards, each drained on its own goroutine with
	// its own event queue. Sessions are mutually independent and every
	// shard writes only its own sessions' slots of the shared id-indexed
	// aggregates, so the Result is bit-identical for every worker count
	// (pinned by TestFleetShardEquivalence). Non-positive selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// ArrivalRatePerSec staggers session starts as a seeded Poisson
	// process with this mean arrival rate in virtual time; non-positive
	// starts every session at virtual time 0.
	ArrivalRatePerSec float64
	// RandomTraceOffsets starts each session at a seeded uniform offset
	// into its trace (wrapping past the end), decorrelating sessions that
	// share a trace. Off, every session reads its trace from time 0 —
	// required for bit-exact equivalence with player.Simulate.
	RandomTraceOffsets bool
	// Seed drives every random assignment (videos, traces, offsets,
	// arrivals). Same seed, same fleet, same result.
	Seed int64
	// MaxChunks truncates each session after this many chunks (0 = full
	// video), bounding run time for smokes and benchmarks.
	MaxChunks int
	// Metric is the perceptual metric for per-chunk quality accounting
	// (default VMAF TV, matching the paper's FCC evaluation).
	Metric quality.Metric
	// Cache memoizes per-video quality tables across runs (nil computes
	// them directly).
	Cache *cache.Cache
	// Metrics, when non-nil, receives fleet_events_total,
	// fleet_sessions_completed_total, fleet_sessions_quarantined_total and
	// the fleet_sessions_active gauge. Counters and gauges are lock-free
	// atomics, so shards update them concurrently without coordination.
	Metrics *telemetry.Registry
	// CrashHook, when non-nil, is invoked immediately before every chunk
	// step with the session id and the chunk index about to be processed.
	// It exists for crash-tolerance testing: a hook that panics exercises
	// the per-shard panic isolation (the session is quarantined and the
	// fleet completes without it), and a hook that blocks starves its
	// shard and trips the RunContext watchdog. The hook is called from
	// shard goroutines concurrently and must be safe for concurrent use.
	CrashHook func(sessionID int32, chunk int)

	// collect retains every session's full per-chunk player.Result in
	// Result.results. Memory grows with sessions × chunks and checkpoints
	// do not hold the records, so only the package's equivalence tests
	// set it.
	collect bool
}

// Quarantine records one session retired by the per-shard panic isolation:
// a panic inside the session's chunk step is recovered, the session is
// dropped from the schedule, and the rest of the fleet completes.
type Quarantine struct {
	// SessionID is the quarantined session's id.
	SessionID int32
	// Chunk is the 0-based index of the chunk whose step panicked.
	Chunk int
	// Reason is the stringified panic value.
	Reason string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Result aggregates a completed fleet run. The distributions hold one
// sample per session, queryable at any percentile via metrics.Sorted.
type Result struct {
	// Sessions is the fleet size; Events counts chunk-step events
	// processed (each session contributes exactly its chunk count).
	Sessions int
	Events   int64
	// ExpectedEvents is Σ per-session chunk counts — the exact event
	// budget of a run with no livelock and no quarantines. LostEvents is
	// the part of that budget forfeited by quarantined sessions, so a
	// healthy run always closes Events == ExpectedEvents - LostEvents.
	ExpectedEvents int64
	LostEvents     int64
	// Completed counts sessions that ran to completion and Quarantined
	// lists sessions retired by panic isolation (ascending session id,
	// nil when none). Completed + len(Quarantined) == Sessions.
	Completed   int
	Quarantined []Quarantine
	// VirtualSec is the fleet virtual time at which the last session
	// completed.
	VirtualSec float64
	// RebufferSec, StartupDelaySec, CompletionSec and SessionLenSec are
	// per-session stall totals, startup delays, completion times (arrival +
	// session length) and session lengths in virtual seconds. SessionLenSec
	// is the starvation signal: a session whose length blows past the
	// content duration is being starved by its trace.
	RebufferSec     metrics.Sorted
	StartupDelaySec metrics.Sorted
	CompletionSec   metrics.Sorted
	SessionLenSec   metrics.Sorted
	// AvgQuality and QualityChange are the per-session mean delivered
	// quality and mean absolute quality change per chunk; AvgLevel and
	// Switches are the mean selected track and the track-switch count.
	AvgQuality    metrics.Sorted
	QualityChange metrics.Sorted
	AvgLevel      metrics.Sorted
	Switches      metrics.Sorted
	// DataMB is per-session downloaded volume in megabytes.
	DataMB metrics.Sorted

	// results holds the full per-session results when Config.collect is
	// set, indexed by session id, nil otherwise.
	results []*player.Result
}

// session is one fleet member: the step core plus its corpus assignment
// and the online aggregates that replace per-chunk records. It is the
// fleet's per-session memory. The step core holds its predictor inline and,
// without collect or a Recorder, no cold block, so a session's algorithm is
// its only other heap object (pinned by TestFleetSessionFootprint).
type session struct {
	step       player.StepState
	tr         *trace.Trace
	offsetSec  float64
	arrivalSec float64
	// video indexes Config.Videos and Engine.qts.
	video int32

	chunks   int32
	switches int32
	levelSum int32
	// done is stored by the owning shard once the session's samples and
	// chunks are final, and loaded by a checkpoint written while the
	// shards run. A quarantined session is never done.
	done          atomic.Bool
	started       bool
	lastQual      float64
	qualSum       float64
	qualChangeSum float64
}

// Engine runs one fleet to completion. It is split into three layers:
//
//   - assignment (New): one sequential pass over the seeded rng gives every
//     session its video, trace, offset and arrival — bit-identical draws
//     regardless of the worker count;
//   - shard pass (Run): the id-partitioned shards drain their event queues
//     concurrently, each writing only its own sessions' slots of the
//     shared id-indexed sample slices;
//   - merge (Run): per-shard scalar tallies (events, completions, horizon)
//     fold in shard-index order and the id-indexed samples feed the sorted
//     distributions, one goroutine each.
type Engine struct {
	cfg            Config
	sessions       []session
	shards         []shard
	expectedEvents int64
	// epochSec is the event queue's time quantum Δ, the shortest chunk
	// duration in the catalog: shard.schedule queues every wakeup at the
	// start of its epoch (epochStart). In steady state a session with a
	// full buffer wakes once per chunk duration, so one epoch visits each
	// live session once, in one ascending sweep of its shard.
	epochSec float64
	// qts holds each video's quality table, indexed like Config.Videos.
	qts []*quality.Table

	// Per-session samples, indexed by session id and written exactly once
	// by the owning shard — disjoint writes, no synchronization needed,
	// and a merge order that cannot depend on the worker count.
	rebufferSec, startupSec, completionSec, sessionLenSec []float64
	avgQuality, qualityChange                             []float64
	avgLevel, switches, dataMB                            []float64
	results                                               []*player.Result

	// abort stops the shards (RunContext on cancel or a watchdog failure):
	// each loads it between epochs and, inside one, once per
	// progressEvents events.
	abort atomic.Bool

	mEvents      *telemetry.Counter
	mCompleted   *telemetry.Counter
	mQuarantined *telemetry.Counter
	mCkptWritten *telemetry.Counter
	mCkptErrors  *telemetry.Counter
	mActive      *telemetry.Gauge
}

// New validates the config, assigns every session its video, trace, offset
// and arrival from the seed (sequentially, so the draws are identical for
// every worker count), and partitions the sessions into shards with primed
// event queues.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Videos) == 0 || len(cfg.Traces) == 0 || cfg.Scheme.New == nil {
		return nil, fmt.Errorf("fleet: Config needs Videos, Traces and Scheme")
	}
	if cfg.Sessions < 0 {
		return nil, fmt.Errorf("fleet: negative session count %d", cfg.Sessions)
	}
	if cfg.Sessions > math.MaxInt32 {
		return nil, fmt.Errorf("fleet: session count %d exceeds the int32 event id space", cfg.Sessions)
	}
	if cfg.Sessions > 1 && cfg.Player.Predictor != nil {
		// A Predictor instance is single-session state; sharing one across
		// interleaved sessions would blend their throughput histories. Each
		// session gets its own default predictor when this is nil.
		return nil, fmt.Errorf("fleet: Player.Predictor is per-session state; leave it nil for multi-session fleets")
	}
	for _, v := range cfg.Videos {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: video %s: %w", v.ID(), err)
		}
	}
	qts := make([]*quality.Table, len(cfg.Videos))
	epochSec := math.Inf(1)
	for i, v := range cfg.Videos {
		qts[i] = cfg.Cache.QualityTable(v, cfg.Metric)
		epochSec = min(epochSec, v.ChunkDurSec)
	}
	for _, tr := range cfg.Traces {
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: trace %s: %w", tr.ID, err)
		}
	}

	n := cfg.Sessions
	e := &Engine{
		cfg:           cfg,
		sessions:      make([]session, n),
		epochSec:      epochSec,
		qts:           qts,
		rebufferSec:   make([]float64, n),
		startupSec:    make([]float64, n),
		completionSec: make([]float64, n),
		sessionLenSec: make([]float64, n),
		avgQuality:    make([]float64, n),
		qualityChange: make([]float64, n),
		avgLevel:      make([]float64, n),
		switches:      make([]float64, n),
		dataMB:        make([]float64, n),
		mEvents:       cfg.Metrics.Counter("fleet_events_total", "fleet chunk-step events processed"),
		mCompleted:    cfg.Metrics.Counter("fleet_sessions_completed_total", "fleet sessions run to completion"),
		mQuarantined:  cfg.Metrics.Counter("fleet_sessions_quarantined_total", "fleet sessions retired by panic isolation"),
		mCkptWritten:  cfg.Metrics.Counter("fleet_checkpoints_written_total", "fleet checkpoints written"),
		mCkptErrors:   cfg.Metrics.Counter("fleet_checkpoint_errors_total", "fleet checkpoint writes that failed"),
		mActive:       cfg.Metrics.Gauge("fleet_sessions_active", "fleet sessions arrived and not yet complete"),
	}
	if cfg.collect {
		e.results = make([]*player.Result, n)
	}

	// Assignment pass: one sequential walk of the seeded rng, independent
	// of the worker count, so video/trace/offset/arrival draws are
	// bit-identical to the single-goroutine engine's.
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivalSec := 0.0
	for i := 0; i < n; i++ {
		vi := rng.Intn(len(cfg.Videos))
		tr := cfg.Traces[rng.Intn(len(cfg.Traces))]
		offSec := 0.0
		if cfg.RandomTraceOffsets {
			offSec = rng.Float64() * tr.Duration()
		}
		if cfg.ArrivalRatePerSec > 0 && i > 0 {
			arrivalSec += rng.ExpFloat64() / cfg.ArrivalRatePerSec
		}
		e.sessions[i] = session{
			tr: tr, video: int32(vi),
			offsetSec: offSec, arrivalSec: arrivalSec,
		}
		e.expectedEvents += int64(e.chunkBudget(int32(i)))
	}

	// Shard pass setup: partition [0, n) into contiguous id ranges (cache-
	// friendly: a shard walks a dense slab of the sessions slice).
	p := cfg.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	e.shards = make([]shard, p)
	for s := range e.shards {
		e.shards[s].init(e, int32(n*s/p), int32(n*(s+1)/p))
	}
	return e, nil
}

// Run drains every shard's event queue to completion, one goroutine per
// shard, merges the per-shard tallies in shard-index order, and returns the
// aggregated fleet result. It is RunContext with no checkpointing,
// interruption or watchdog, so every run goes through the one supervised
// loop.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background(), RunOptions{})
}

// merge builds the drained run's fleet result and checks its accounting.
// A violation is unreachable by construction (every Advance consumes
// exactly one chunk); if it ever trips, the engine is mis-scheduling and
// the run's aggregates cannot be trusted.
func (e *Engine) merge() (*Result, error) {
	r := e.result()
	if errs := r.accounting(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return r, nil
}

// result aggregates the stopped engine, drained or interrupted, into a
// fleet result. The distributions cover exactly the sessions marked done:
// quarantined and unfinished sessions' zero-valued slots must not dilute
// them. The sample slices are id-indexed (each shard wrote only its own
// range), so the distributions cannot depend on the worker count. When
// every session completed, the slices go to NewSorted (which copies)
// unfiltered. The nine distributions are independent, so they are sorted
// on nine goroutines: the shards have returned, and the merge would
// otherwise leave all cores but one idle.
func (e *Engine) result() *Result {
	events, completed, lost, maxDoneSec, quarantined := e.tallies()
	var done []int32 // nil when every session completed
	if completed < e.cfg.Sessions {
		done = make([]int32, 0, completed)
		for id := range e.sessions {
			if e.sessions[id].done.Load() {
				done = append(done, int32(id))
			}
		}
	}
	var d [9]metrics.Sorted
	var wg sync.WaitGroup
	wg.Add(len(d))
	for i, xs := range e.sampleFields() {
		go func() {
			defer wg.Done()
			samples := xs
			if done != nil {
				samples = make([]float64, len(done))
				for k, id := range done {
					samples[k] = xs[id]
				}
			}
			d[i] = metrics.NewSorted(samples)
		}()
	}
	wg.Wait()
	return &Result{
		Sessions:        e.cfg.Sessions,
		Events:          events,
		ExpectedEvents:  e.expectedEvents,
		LostEvents:      lost,
		Completed:       completed,
		Quarantined:     quarantined,
		VirtualSec:      maxDoneSec,
		RebufferSec:     d[0],
		StartupDelaySec: d[1],
		CompletionSec:   d[2],
		SessionLenSec:   d[3],
		AvgQuality:      d[4],
		QualityChange:   d[5],
		AvgLevel:        d[6],
		Switches:        d[7],
		DataMB:          d[8],
		results:         e.results,
	}
}

// tallies folds the per-shard scalar tallies in shard-index order and
// collects the quarantine records in ascending session id. It reads state
// written by shard goroutines, so every shard must have returned.
func (e *Engine) tallies() (events int64, completed int, lost int64, maxDoneSec float64, quarantined []Quarantine) {
	for i := range e.shards {
		sh := &e.shards[i]
		events += sh.events
		completed += sh.completed
		lost += sh.lostEvents
		if sh.maxDoneSec > maxDoneSec {
			maxDoneSec = sh.maxDoneSec
		}
		// Shards own contiguous ascending id ranges and append in step
		// order; a per-shard sort keeps the concatenation id-sorted even
		// though steps within a shard are not id-monotonic across rounds
		// and epochs.
		qs := append([]Quarantine(nil), sh.quarantined...)
		sort.Slice(qs, func(a, b int) bool { return qs[a].SessionID < qs[b].SessionID })
		quarantined = append(quarantined, qs...)
	}
	return events, completed, lost, maxDoneSec, quarantined
}

// chunkBudget is the number of chunk events session id is scheduled to
// process: its video's chunk count, truncated by Config.MaxChunks.
func (e *Engine) chunkBudget(id int32) int {
	n := e.cfg.Videos[e.sessions[id].video].NumChunks()
	if e.cfg.MaxChunks > 0 && e.cfg.MaxChunks < n {
		n = e.cfg.MaxChunks
	}
	return n
}

// starvationFactor sets the starvation deadline: no session may need more
// than this many times the longest video in the catalog to finish. That is
// generous against slow traces, while a session that a scheduling bug
// stops draining overshoots it.
const starvationFactor = 20

// accounting checks the first two rules of the fleet contract, the ones
// the engine's own merge also enforces: Events == ExpectedEvents -
// LostEvents, and Completed + len(Quarantined) == Sessions.
func (r *Result) accounting() []error {
	var out []error
	if r.Events != r.ExpectedEvents-r.LostEvents {
		out = append(out, fmt.Errorf("fleet: processed %d events for %d expected - %d lost (livelock or lost wakeups)",
			r.Events, r.ExpectedEvents, r.LostEvents))
	}
	if r.Completed+len(r.Quarantined) != r.Sessions {
		out = append(out, fmt.Errorf("fleet: %d completed + %d quarantined != %d sessions (sessions vanished)",
			r.Completed, len(r.Quarantined), r.Sessions))
	}
	return out
}

// Invariants checks a completed run against the fleet contract and returns
// every violation (empty means the run passed):
//
//   - no livelock or lost wakeups: Events == ExpectedEvents - LostEvents;
//   - no session vanished: Completed + len(Quarantined) == Sessions;
//   - every completed session left its samples: one SessionLenSec sample
//     per completed session;
//   - no runaway clock: VirtualSec is finite;
//   - no starvation: no session took longer than 20× the longest video
//     in cfg.Videos.
//
// A partial Result from an interrupted RunContext fails the accounting
// rule by definition, so only completed runs are checked.
func (r *Result) Invariants(cfg Config) []error {
	out := r.accounting()
	if n := r.SessionLenSec.Len(); n != r.Completed {
		out = append(out, fmt.Errorf("fleet: %d session-length samples for %d completed sessions (samples lost)",
			n, r.Completed))
	}
	if math.IsInf(r.VirtualSec, 0) || math.IsNaN(r.VirtualSec) {
		out = append(out, fmt.Errorf("fleet: virtual time is %v", r.VirtualSec))
	}
	longestSec := 0.0
	for _, v := range cfg.Videos {
		longestSec = math.Max(longestSec, v.Duration())
	}
	if slowestSec, deadlineSec := r.SessionLenSec.Percentile(100), starvationFactor*longestSec; slowestSec > deadlineSec {
		out = append(out, fmt.Errorf("fleet: slowest session took %.1f virtual s, deadline %.1f (starved)",
			slowestSec, deadlineSec))
	}
	return out
}

// Run builds an engine for cfg and drains it — the one-call frontend.
func Run(cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
