package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/chaos/leakcheck"
	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/sim"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// shortVideo is a small deterministic VBR title: 60 chunks keeps a
// 16-scheme equivalence sweep fast while still exercising startup, buffer
// caps and switching.
func shortVideo() *video.Video {
	return video.Generate(video.GenConfig{
		Name: "fleet-test", Genre: video.Animation,
		ChunkDurSec: 2, DurationSec: 120, Seed: 7,
	})
}

func fixedScheme(level int) abr.Scheme {
	return abr.Scheme{Name: "Fixed", New: abr.Fixed(level)}
}

// TestFleetEquivalence pins the tentpole contract: player.Simulate and a
// one-session fleet drive the same StepState core, so their Results must be
// identical — bit for bit, per chunk — for every scheme in the roster.
func TestFleetEquivalence(t *testing.T) {
	v := shortVideo()
	tr := trace.GenLTE(3)
	for _, sc := range sim.SchemeAll() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := player.Simulate(v, tr, sc.New(v), player.Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Videos: []*video.Video{v}, Traces: []*trace.Trace{tr},
				Scheme: sc, Sessions: 1, collect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.results) != 1 {
				t.Fatalf("collect returned %d results, want 1", len(res.results))
			}
			if !reflect.DeepEqual(want, res.results[0]) {
				t.Errorf("one-session fleet diverges from player.Simulate\nsim:   %+v\nfleet: %+v",
					want, res.results[0])
			}
		})
	}
}

// TestFleetSessionsIndependent runs several sessions over one (video, trace)
// pair with no offsets or staggered arrivals: interleaving in the event
// queue must not leak state between sessions, so every per-session Result
// equals the solo Simulate run.
func TestFleetSessionsIndependent(t *testing.T) {
	v := shortVideo()
	tr := trace.GenLTE(5)
	sc := abr.Scheme{Name: "BBA-1", New: func(v *video.Video) abr.Algorithm {
		return abr.NewBBA1(v, 0, 0)
	}}
	want, err := player.Simulate(v, tr, sc.New(v), player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Videos: []*video.Video{v}, Traces: []*trace.Trace{tr},
		Scheme: sc, Sessions: 5, collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.results {
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("session %d diverges from the solo run despite identical inputs", i)
		}
	}
}

// TestFleetDeterministic pins that a run is a pure function of its Config:
// same seed, same fleet, same aggregates — including with random offsets,
// Poisson arrivals and a mixed corpus in play.
func TestFleetDeterministic(t *testing.T) {
	cfg := Config{
		Videos: []*video.Video{shortVideo(), video.Generate(video.GenConfig{
			Name: "fleet-test-2", Genre: video.Sports,
			ChunkDurSec: 2, DurationSec: 80, Seed: 11,
		})},
		Traces:             []*trace.Trace{trace.GenLTE(0), trace.GenLTE(1), trace.GenFCC(0)},
		Scheme:             fixedScheme(2),
		Sessions:           50,
		ArrivalRatePerSec:  1.5,
		RandomTraceOffsets: true,
		Seed:               42,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with identical configs diverge")
	}
	c, err := Run(func() Config { cfg.Seed = 43; return cfg }())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("changing the seed changed nothing — the seed is not driving assignment")
	}
}

// TestHeapOrdering is the event-queue property test: pops come out sorted
// by (wakeSec, id) regardless of push order.
func TestHeapOrdering(t *testing.T) {
	// A fixed LCG shuffles push order without math/rand (keeps the test
	// reproducible and the package free of unseeded randomness).
	lcg := uint64(12345)
	next := func(n int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int(lcg>>33) % n
	}
	evs := make([]event, 0, 200)
	for i := 0; i < 200; i++ {
		evs = append(evs, event{wakeSec: float64(next(17)), id: int32(next(64))})
	}
	h := newEventHeap(0, int32(len(evs)))
	for _, e := range evs {
		h.push(e)
	}
	sort.Slice(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	for i, want := range evs {
		got := h.pop()
		if got != want {
			t.Fatalf("pop %d = %+v, want %+v", i, got, want)
		}
	}
	if h.len() != 0 {
		t.Fatalf("%d events left after draining", h.len())
	}
}

// TestHeapSimultaneousWakeupsPopInIDOrder pins the deterministic tie-break:
// events due at the same virtual instant drain in session-id order, so a
// batch's decision order never depends on insertion history.
func TestHeapSimultaneousWakeupsPopInIDOrder(t *testing.T) {
	h := newEventHeap(0, 8)
	for _, id := range []int32{5, 1, 7, 0, 3, 6, 2, 4} {
		h.push(event{wakeSec: 12.5, id: id})
	}
	for want := int32(0); want < 8; want++ {
		if got := h.pop(); got.id != want {
			t.Fatalf("simultaneous wakeups popped id %d before %d", got.id, want)
		}
	}
}

// TestFleetSessionsEndMidHeap mixes videos of different lengths so sessions
// finish while others are still queued; the event accounting must close
// exactly (no lost or duplicated wakeups) and every session must complete.
func TestFleetSessionsEndMidHeap(t *testing.T) {
	long := shortVideo()
	short := video.Generate(video.GenConfig{
		Name: "fleet-short", Genre: video.Nature,
		ChunkDurSec: 2, DurationSec: 30, Seed: 3,
	})
	cfg := Config{
		Videos: []*video.Video{long, short},
		Traces: []*trace.Trace{trace.GenLTE(2)},
		Scheme: fixedScheme(1), Sessions: 20, Seed: 9, collect: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Invariants(cfg) {
		t.Errorf("invariant violated: %v", e)
	}
	lens := map[int]bool{}
	for _, r := range res.results {
		lens[len(r.Chunks)] = true
	}
	if !lens[long.NumChunks()] || !lens[short.NumChunks()] {
		t.Errorf("expected both %d- and %d-chunk sessions in a 20-session mixed fleet, got lengths %v",
			long.NumChunks(), short.NumChunks(), lens)
	}
}

// TestFleetEmpty pins the zero-session edge: an empty fleet runs and
// returns empty distributions rather than erroring or hanging.
func TestFleetEmpty(t *testing.T) {
	res, err := Run(Config{
		Videos: []*video.Video{shortVideo()},
		Traces: []*trace.Trace{trace.GenLTE(0)},
		Scheme: fixedScheme(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 0 || res.Events != 0 || res.RebufferSec.Len() != 0 {
		t.Errorf("empty fleet produced sessions=%d events=%d samples=%d",
			res.Sessions, res.Events, res.RebufferSec.Len())
	}
}

// TestFleetTraceWraparound starts a session deep into a trace much shorter
// than its video, forcing reads past the end. The run must match a solo
// Simulate over the equivalently rotated trace (the wrap is a rotation) and
// must differ from the unshifted run (proving the offset is applied at all).
func TestFleetTraceWraparound(t *testing.T) {
	v := shortVideo() // 120 s of video over a 60 s trace: two full wraps
	tr := trace.Step("step", 0.3e6, 6e6, 10, 60, 1)
	const k = 17 // offset in samples; IntervalSec is 1

	run := func(offsetSec float64) *player.Result {
		e, err := New(Config{
			Videos: []*video.Video{v}, Traces: []*trace.Trace{tr},
			Scheme: fixedScheme(3), Sessions: 1, collect: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.sessions[0].offsetSec = offsetSec
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.results[0]
	}

	rotated := &trace.Trace{ID: tr.ID, IntervalSec: tr.IntervalSec,
		Samples: make([]float64, len(tr.Samples))}
	for i := range tr.Samples {
		rotated.Samples[i] = tr.Samples[(i+k)%len(tr.Samples)]
	}
	want, err := player.Simulate(v, rotated, abr.Fixed(3)(v), player.Config{})
	if err != nil {
		t.Fatal(err)
	}

	got := run(k * tr.IntervalSec)
	// Same integration, but the absolute times inside DownloadTime differ by
	// k seconds, so results agree to rounding rather than bit-for-bit.
	if math.Abs(got.SessionSec-want.SessionSec) > 1e-6 ||
		math.Abs(got.TotalRebufferSec-want.TotalRebufferSec) > 1e-6 {
		t.Errorf("offset %d×%gs: session %.9f/rebuffer %.9f, rotated-trace solo run %.9f/%.9f",
			k, tr.IntervalSec, got.SessionSec, got.TotalRebufferSec,
			want.SessionSec, want.TotalRebufferSec)
	}
	base := run(0)
	if got.SessionSec == base.SessionSec && got.TotalRebufferSec == base.TotalRebufferSec {
		t.Error("offset run identical to unshifted run — trace offset is not applied")
	}
}

// TestFleetArrivalsStagger pins the Poisson arrival process: completion
// times must spread beyond a single session's length, and the fleet's
// virtual-time horizon must cover the last completion.
func TestFleetArrivalsStagger(t *testing.T) {
	v := shortVideo()
	res, err := Run(Config{
		Videos: []*video.Video{v}, Traces: []*trace.Trace{trace.Constant("c", 5e6, 1200, 1)},
		Scheme: fixedScheme(0), Sessions: 30, ArrivalRatePerSec: 0.05, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	spread := res.CompletionSec.Percentile(100) - res.CompletionSec.Percentile(0)
	if spread <= 0 {
		t.Error("staggered arrivals produced identical completion times")
	}
	if res.VirtualSec != res.CompletionSec.Percentile(100) {
		t.Errorf("VirtualSec %v != last completion %v", res.VirtualSec, res.CompletionSec.Percentile(100))
	}
}

// TestFleetValidation covers config rejection: missing corpus pieces,
// negative fleet sizes and a shared per-session predictor.
func TestFleetValidation(t *testing.T) {
	v := shortVideo()
	tr := trace.GenLTE(0)
	ok := Config{Videos: []*video.Video{v}, Traces: []*trace.Trace{tr}, Scheme: fixedScheme(0)}
	for name, mut := range map[string]func(*Config){
		"no videos":         func(c *Config) { c.Videos = nil },
		"no traces":         func(c *Config) { c.Traces = nil },
		"no scheme":         func(c *Config) { c.Scheme = abr.Scheme{} },
		"negative sessions": func(c *Config) { c.Sessions = -1 },
		"invalid trace": func(c *Config) {
			c.Traces = []*trace.Trace{{ID: "bad", IntervalSec: 0}}
		},
		"shared predictor": func(c *Config) {
			c.Sessions = 2
			c.Player.Predictor = bandwidth.NewHarmonicMean(5)
		},
	} {
		cfg := ok
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if _, err := New(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestFleetZeroAllocPerEvent is the scale guard: once every session has
// arrived and initialized, advancing the fleet allocates nothing — no
// per-event garbage at 10⁵–10⁶ sessions. The guard drives the whole engine
// path (heap pop/push, Advance, online aggregation), not a mock.
func TestFleetZeroAllocPerEvent(t *testing.T) {
	v := video.Generate(video.GenConfig{
		Name: "fleet-alloc", Genre: video.Animation,
		ChunkDurSec: 2, DurationSec: 600, Seed: 5,
	})
	cfg := Config{
		Videos: []*video.Video{v}, Traces: []*trace.Trace{trace.GenLTE(4)},
		Scheme: fixedScheme(2), Sessions: 4, Workers: 1,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	// Warm-up: lazy session Init (algorithm + predictor construction) and
	// predictor window fill are startup costs, not steady state.
	for i := 0; i < 20 && sh.heap.len() > 0; i++ {
		sh.runBatch()
	}
	before := sh.events
	allocs := testing.AllocsPerRun(100, func() {
		if sh.heap.len() > 0 {
			sh.runBatch()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state event batch allocates %v times, want 0", allocs)
	}
	// Each batch drains an epoch: the fleet must outlast the window, so
	// that every measured call stepped events.
	if sh.heap.len() == 0 || sh.events == before {
		t.Fatalf("the measured window stepped %d events and left %d pending, want some of each",
			sh.events-before, sh.heap.len())
	}
	t.Logf("the measured window stepped %d events", sh.events-before)
	// Drain the remainder: the measured engine must still close its event
	// accounting exactly.
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range res.Invariants(cfg) {
		t.Errorf("invariant violated after alloc probe: %v", bad)
	}
}

// TestFleetEpochSchedule pins the shard's schedule exactly, on a
// full-length fleet at one worker with every session live from time 0.
// Each runBatch drains one epoch, [kΔ, (k+1)Δ) with Δ the catalog's
// shortest chunk duration: the queue's floor is the epoch's start, every
// step's wakeup lies in the epoch, and no epoch is drained twice. Inside
// a batch each session due in the epoch is visited once: takeDue hands out
// exactly the sessions queued at the epoch's start, once each and in
// ascending id, in one round, and a session's steps in the epoch are
// consecutive. Events still close at ExpectedEvents, and the watchdog's
// progress counter trails the shard's events by fewer than progressEvents
// inside a batch as well as between.
func TestFleetEpochSchedule(t *testing.T) {
	videos := []*video.Video{video.ByID("ED-youtube-h264"), video.ByID("BBB-youtube-h264")}
	epochSec := math.Inf(1)
	for _, v := range videos {
		epochSec = min(epochSec, v.ChunkDurSec)
	}
	const sessions = 2000
	cfg := Config{
		Videos: videos,
		Traces: []*trace.Trace{trace.GenLTE(0), trace.GenLTE(1), trace.GenFCC(0), trace.GenFCC(1)},
		Scheme: abr.Scheme{Name: "BBA-1", New: func(v *video.Video) abr.Algorithm {
			return abr.NewBBA1(v, 0, 0)
		}},
		Sessions: sessions, Workers: 1, RandomTraceOffsets: true, Seed: 5,
	}
	type step struct {
		id                int32
		wakeSec, floorSec float64
	}
	var (
		e      *Engine
		steps  []step
		maxLag int64
	)
	cfg.CrashHook = func(id int32, _ int) {
		s, sh := &e.sessions[id], &e.shards[0]
		steps = append(steps, step{id: id, wakeSec: s.arrivalSec + s.step.NowSec,
			floorSec: math.Float64frombits(sh.heap.floor)})
		maxLag = max(maxLag, sh.events-sh.progress.Load())
	}
	var err error
	if e, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	lastEpoch, batches, visits := math.Inf(-1), 0, 0
	var due, visited []int32
	for ; sh.heap.len() > 0; batches++ {
		// The epoch's sessions as queued: bucket 0 once the queue has
		// settled, as drainInstant's first step would.
		if sh.heap.occupied&1 == 0 {
			sh.heap.settle()
		}
		due = due[:0]
		c := &sh.heap.buckets[0]
		for b := c.head; ; b = sh.heap.next[b] {
			for _, ev := range sh.heap.filled(c, b) {
				due = append(due, ev.id)
			}
			if b == c.tail {
				break
			}
		}
		slices.Sort(due)
		steps = steps[:0]
		sh.runBatch()
		if len(steps) == 0 {
			t.Fatalf("batch %d stepped nothing", batches)
		}
		startSec := steps[0].floorSec
		epoch := math.Floor(startSec / epochSec)
		if startSec != epoch*epochSec {
			t.Fatalf("batch %d drains from %v s, not the start of a %v s epoch", batches, startSec, epochSec)
		}
		if epoch <= lastEpoch {
			t.Fatalf("batch %d drains epoch %v after epoch %v", batches, epoch, lastEpoch)
		}
		lastEpoch = epoch
		visited = visited[:0]
		for i, st := range steps {
			if st.floorSec != startSec || st.wakeSec < startSec || st.wakeSec >= startSec+epochSec {
				t.Fatalf("batch %d: session %d stepped at %v s with the floor at %v s, outside the epoch [%v, %v)",
					batches, st.id, st.wakeSec, st.floorSec, startSec, startSec+epochSec)
			}
			if i > 0 && st.id == steps[i-1].id {
				continue
			}
			// A new visit: its session must come after every session
			// visited before it in the batch, so a session's steps are
			// consecutive and the visits ascend.
			if n := len(visited); n > 0 && st.id <= visited[n-1] {
				t.Fatalf("batch %d: step %d visits session %d after session %d", batches, i, st.id, visited[n-1])
			}
			visited = append(visited, st.id)
		}
		if !slices.Equal(visited, due) {
			t.Fatalf("batch %d visited %d sessions, %d were queued for the epoch", batches, len(visited), len(due))
		}
		if !slices.Equal(sh.batch, due) {
			t.Fatalf("batch %d: takeDue's last round handed out %d sessions, %d were queued for the epoch",
				batches, len(sh.batch), len(due))
		}
		visits += len(visited)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != res.ExpectedEvents || res.Completed != sessions {
		t.Errorf("%d events of %d expected, %d of %d sessions completed",
			res.Events, res.ExpectedEvents, res.Completed, sessions)
	}
	if maxLag >= progressEvents {
		t.Errorf("the watchdog's progress trailed the shard by up to %d events, want fewer than %d", maxLag, progressEvents)
	}
	t.Logf("%d events in %d visits (%.2f steps a visit) over %d epochs of %v s",
		res.Events, visits, float64(res.Events)/float64(visits), batches, epochSec)
}

// maxSessionBytes is the fleet's per-session slot budget: the step core
// with its predictor inline, the corpus assignment and the online
// aggregates.
const maxSessionBytes = 416

// TestFleetSessionFootprint pins the per-session memory of the fleet path.
// The slot stays within maxSessionBytes, and a session's first visit (its
// first event and the steps after it in the same epoch) allocates nothing
// beyond its scheme factory: no predictor object, no cold block and no
// formatted video label.
func TestFleetSessionFootprint(t *testing.T) {
	if size := reflect.TypeFor[session]().Size(); size > maxSessionBytes {
		t.Errorf("fleet session slot is %d B, budget %d B", size, maxSessionBytes)
	}

	v := shortVideo()
	sc := fixedScheme(2)
	const runs = 50
	// Each call makes the first visit of the next unstarted session, as a
	// drain's first epoch does: its first event and every step after it
	// whose wakeup stays in epoch 0, then the push of its next epoch. The
	// queue is not drained, so that push only joins the session's pending
	// arrival. AllocsPerRun makes one extra warm-up call, hence runs+1
	// sessions.
	e, err := New(Config{
		Videos: []*video.Video{v}, Traces: []*trace.Trace{trace.GenLTE(0)},
		Scheme: sc, Sessions: runs + 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	var next int32
	firstVisit := testing.AllocsPerRun(runs, func() {
		sh.stepSession(next)
		next++
	})
	if next != runs+1 || !e.sessions[runs].started {
		t.Fatalf("made %d first visits, want %d", next, runs+1)
	}
	factory := testing.AllocsPerRun(runs, func() { _ = sc.New(v) })
	if extra := firstVisit - factory; extra != 0 {
		t.Errorf("a session's first visit allocates %v times beyond its scheme factory's %v, want 0", extra, factory)
	}
}

// TestFleetShardEquivalence is the sharding contract: the Result — every
// sorted distribution, Events, VirtualSec and the collect-mode per-session
// Results — is bit-identical for every worker count at a fixed seed. The
// assignment pass is sequential and sessions are mutually independent, so
// partitioning must be unobservable in the output.
func TestFleetShardEquivalence(t *testing.T) {
	cfg := Config{
		Videos: []*video.Video{shortVideo(), video.Generate(video.GenConfig{
			Name: "fleet-shard-2", Genre: video.Sports,
			ChunkDurSec: 2, DurationSec: 80, Seed: 11,
		})},
		Traces:             []*trace.Trace{trace.GenLTE(0), trace.GenLTE(1), trace.GenFCC(0)},
		Scheme:             fixedScheme(2),
		Sessions:           60,
		ArrivalRatePerSec:  1.5,
		RandomTraceOffsets: true,
		Seed:               42,
		collect:            true,
	}
	cfg.Workers = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 7, runtime.GOMAXPROCS(0), 61} {
		cfg.Workers = p
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", p, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d diverges from workers=1", p)
		}
	}
}

// TestFleetSoloReference pins the one-worker engine against an independent
// reconstruction of the pre-shard semantics: the test replays the seeded
// assignment pass by hand (same rng draw order), runs each session solo
// through player.Simulate, and rebuilds every distribution. Arrivals only
// shift completion times; per-session trajectories must match the solo
// runs bit for bit.
func TestFleetSoloReference(t *testing.T) {
	videos := []*video.Video{shortVideo(), video.Generate(video.GenConfig{
		Name: "fleet-ref-2", Genre: video.Nature,
		ChunkDurSec: 2, DurationSec: 60, Seed: 21,
	})}
	traces := []*trace.Trace{trace.GenLTE(0), trace.GenFCC(1)}
	const (
		n    = 24
		rate = 2.0
		seed = 99
	)
	sc := fixedScheme(1)
	res, err := Run(Config{
		Videos: videos, Traces: traces, Scheme: sc,
		Sessions: n, ArrivalRatePerSec: rate, Seed: seed,
		Workers: 1, collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Identical rng walk to the engine's assignment pass (no offset draw:
	// RandomTraceOffsets is off above).
	rng := rand.New(rand.NewSource(seed))
	arrivalSec := 0.0
	completion := make([]float64, n)
	rebuffer := make([]float64, n)
	for i := 0; i < n; i++ {
		v := videos[rng.Intn(len(videos))]
		tr := traces[rng.Intn(len(traces))]
		if i > 0 {
			arrivalSec += rng.ExpFloat64() / rate
		}
		want, err := player.Simulate(v, tr, sc.New(v), player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, res.results[i]) {
			t.Fatalf("session %d diverges from its solo player.Simulate run", i)
		}
		completion[i] = arrivalSec + want.SessionSec
		rebuffer[i] = want.TotalRebufferSec
	}
	if got, want := res.CompletionSec, metrics.NewSorted(completion); !reflect.DeepEqual(got, want) {
		t.Error("completion distribution diverges from the solo reconstruction")
	}
	if got, want := res.RebufferSec, metrics.NewSorted(rebuffer); !reflect.DeepEqual(got, want) {
		t.Error("rebuffer distribution diverges from the solo reconstruction")
	}
}

// TestDrainInstantSameInstantRewake pins the re-wake ordering fix: a
// session re-pushed with a wake time equal to the instant being drained is
// processed in a later round of the *same* drainInstant call — the instant
// completes before the function returns — and later-instant events stay
// queued. The old engine returned after the first round, so a same-instant
// re-wake leaked into a separate batch.
func TestDrainInstantSameInstantRewake(t *testing.T) {
	h := newEventHeap(0, 8)
	for _, id := range []int32{2, 0, 1} {
		h.push(event{wakeSec: 5, id: id})
	}
	h.push(event{wakeSec: 9, id: 3})

	var order []int32
	rewoken := false
	step := func(id int32) {
		order = append(order, id)
		// Session 0's step completes instantaneously once: a zero-duration
		// chunk re-wakes it at the instant being drained.
		if id == 0 && !rewoken {
			rewoken = true
			h.push(event{wakeSec: 5, id: 0})
		}
	}
	drainInstant(h, nil, step)

	// Round 1 is ids 0,1,2 in order; the re-wake forms round 2.
	want := []int32{0, 1, 2, 0}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("instant drained in order %v, want %v", order, want)
	}
	if h.len() != 1 || h.peek().wakeSec != 9 {
		t.Errorf("later-instant event disturbed: %d events left, head %+v", h.len(), h.peek())
	}
}

// TestFleetMaxChunksBudget pins event budgeting under truncation: with
// MaxChunks set, ExpectedEvents is Σ min(MaxChunks, chunks) and sessions
// stop exactly there.
func TestFleetMaxChunksBudget(t *testing.T) {
	v := shortVideo()
	res, err := Run(Config{
		Videos: []*video.Video{v}, Traces: []*trace.Trace{trace.GenLTE(6)},
		Scheme: fixedScheme(1), Sessions: 7, MaxChunks: 9, collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(7 * 9); res.ExpectedEvents != want || res.Events != want {
		t.Errorf("events %d/expected %d, want %d", res.Events, res.ExpectedEvents, want)
	}
	for _, r := range res.results {
		if len(r.Chunks) != 9 {
			t.Fatalf("session ran %d chunks, want 9", len(r.Chunks))
		}
	}
}

// TestFleetChaosSmoke is the fleet soak: two thousand CAVA sessions with
// Poisson arrivals and random trace offsets over a mixed LTE/FCC corpus,
// sharded across four workers (a multi-worker cell even on one core, so
// the race-enabled soak exercises the shard partition itself). Seeded
// panics strike 25 sessions mid-step. The run must keep the fleet
// contract (Result.Invariants), quarantine exactly the struck sessions
// and count their lost events. The same run is then interrupted at a
// third of its events, checkpointed and resumed, and must finish equal to
// the uninterrupted one. The quarantine and checkpoint counters must
// move, and no goroutine may outlive the test.
func TestFleetChaosSmoke(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	cfg := Config{
		Videos: []*video.Video{
			video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264),
			video.FFmpegVideo(video.Title{Name: "BBB", Genre: video.Animation}, video.H264),
		},
		Traces: []*trace.Trace{
			trace.GenLTE(0), trace.GenLTE(1), trace.GenLTE(2), trace.GenFCC(0),
		},
		Scheme:             abr.Scheme{Name: "CAVA", Key: "cava", New: core.Factory()},
		Sessions:           2000,
		Workers:            4,
		ArrivalRatePerSec:  20,
		RandomTraceOffsets: true,
		Seed:               11,
		MaxChunks:          40, // bounded smoke; the benchmark runs full-length sessions
		Metrics:            reg,
	}
	// Every video is longer than MaxChunks, so each victim chunk, drawn
	// in [1, MaxChunks), is reached and its panic fires.
	const faults = 25
	rng := rand.New(rand.NewSource(cfg.Seed))
	victims := make(map[int32]int, faults)
	for len(victims) < faults {
		victims[int32(rng.Intn(cfg.Sessions))] = 1 + rng.Intn(cfg.MaxChunks-1)
	}
	fault := func(id int32, chunk int) {
		if c, ok := victims[id]; ok && chunk == c {
			panic(fmt.Sprintf("injected fault in session %d at chunk %d", id, chunk))
		}
	}
	cfg.CrashHook = fault

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Invariants(cfg) {
		t.Errorf("invariant violated: %v", e)
	}
	for _, q := range res.Quarantined {
		if c, ok := victims[q.SessionID]; !ok || c != q.Chunk {
			t.Errorf("session %d quarantined at chunk %d, no fault injected there", q.SessionID, q.Chunk)
		}
	}
	if len(res.Quarantined) != faults {
		t.Errorf("%d sessions quarantined for %d injected faults", len(res.Quarantined), faults)
	}
	if res.LostEvents <= 0 {
		t.Errorf("%d faults injected but LostEvents = %d", faults, res.LostEvents)
	}
	if want := int64(2000 * 40); res.ExpectedEvents != want {
		t.Errorf("expected %d events, want %d", res.ExpectedEvents, want)
	}

	// The same run, cancelled at a third of its events: the engine writes
	// its final checkpoint, and the resumed run, faults and all, must
	// finish equal to the uninterrupted one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	icfg := cfg
	icfg.CrashHook = func(id int32, chunk int) {
		if seen.Add(1) == res.ExpectedEvents/3 {
			cancel()
		}
		fault(id, chunk)
	}
	e, err := New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := e.RunContext(ctx, RunOptions{CheckpointDir: dir}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunContext cancelled at event %d returned %v, want ErrInterrupted", res.ExpectedEvents/3, err)
	}
	re, err := Resume(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutStacks(res), withoutStacks(got)) {
		t.Error("resumed run diverges from the uninterrupted run")
	}

	for _, name := range []string{"fleet_sessions_quarantined_total", "fleet_checkpoints_written_total"} {
		if reg.Counter(name, "").Value() == 0 {
			t.Errorf("%s stayed 0", name)
		}
	}
	t.Logf("fleet smoke: %d sessions, %d quarantined, %d/%d events (%d lost), horizon %.0f virtual s, slowest session %.0f s, median rebuffer %.1f s",
		res.Sessions, len(res.Quarantined), res.Events, res.ExpectedEvents, res.LostEvents,
		res.VirtualSec, res.SessionLenSec.Percentile(100), res.RebufferSec.Median())
}

// TestFleetInvariantsCatchViolations pins that each rule actually fires: a
// Result with a livelock signature, a vanished session, a missing sample,
// a non-finite horizon and a starved session yields one violation apiece.
func TestFleetInvariantsCatchViolations(t *testing.T) {
	cfg := Config{Videos: []*video.Video{shortVideo()}} // 120 s: deadline 2400 s
	res := &Result{
		Sessions: 10, Events: 99, ExpectedEvents: 100, LostEvents: 0,
		Completed: 8, Quarantined: []Quarantine{{SessionID: 4}},
		VirtualSec:    math.Inf(1),
		SessionLenSec: metrics.NewSorted([]float64{100, 100, 100, 100, 100, 100, 5000}),
	}
	errs := res.Invariants(cfg)
	if len(errs) != 5 {
		t.Fatalf("got %d violations, want 5: %v", len(errs), errs)
	}
	for i, want := range []string{"livelock", "vanished", "samples", "virtual time", "starved"} {
		if !strings.Contains(errs[i].Error(), want) {
			t.Errorf("violation %d = %q, want it to mention %q", i, errs[i], want)
		}
	}

	// A healthy quarantine partitions the fleet and closes the accounting.
	ok := &Result{
		Sessions: 10, Events: 95, ExpectedEvents: 100, LostEvents: 5,
		Completed: 9, Quarantined: []Quarantine{{SessionID: 4}},
		VirtualSec:    300,
		SessionLenSec: metrics.NewSorted([]float64{100, 100, 100, 100, 100, 100, 100, 100, 2400}),
	}
	if errs := ok.Invariants(cfg); len(errs) != 0 {
		t.Errorf("healthy quarantined run flagged: %v", errs)
	}
}
