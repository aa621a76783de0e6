package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/sim"
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
// identical — bit for bit, per chunk — for every scheme in the registry.
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
				Scheme: sc, Sessions: 1, Collect: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != 1 {
				t.Fatalf("Collect returned %d results, want 1", len(res.Results))
			}
			if !reflect.DeepEqual(want, res.Results[0]) {
				t.Errorf("one-session fleet diverges from player.Simulate\nsim:   %+v\nfleet: %+v",
					want, res.Results[0])
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
		Scheme: sc, Sessions: 5, Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.Results {
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
	h := newEventHeap(len(evs))
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
	h := newEventHeap(8)
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
		Scheme: fixedScheme(1), Sessions: 20, Seed: 9, Collect: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Invariants(cfg) {
		t.Errorf("invariant violated: %v", e)
	}
	lens := map[int]bool{}
	for _, r := range res.Results {
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
			Scheme: fixedScheme(3), Sessions: 1, Collect: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.sessions[0].offsetSec = offsetSec
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Results[0]
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
	allocs := testing.AllocsPerRun(100, func() {
		if sh.heap.len() > 0 {
			sh.runBatch()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state event batch allocates %v times, want 0", allocs)
	}
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

// TestFleetShardEquivalence is the sharding contract: the Result — every
// sorted distribution, Events, VirtualSec and the Collect-mode per-session
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
		Collect:            true,
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
		Workers: 1, Collect: true,
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
		if !reflect.DeepEqual(want, res.Results[i]) {
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
	h := newEventHeap(8)
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
		Scheme: fixedScheme(1), Sessions: 7, MaxChunks: 9, Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(7 * 9); res.ExpectedEvents != want || res.Events != want {
		t.Errorf("events %d/expected %d, want %d", res.Events, res.ExpectedEvents, want)
	}
	for _, r := range res.Results {
		if len(r.Chunks) != 9 {
			t.Fatalf("session ran %d chunks, want 9", len(r.Chunks))
		}
	}
}

// TestFleetChaosSmoke is the fleet soak: two thousand CAVA sessions with
// Poisson arrivals and random trace offsets over a mixed LTE/FCC corpus,
// sharded across four workers (a multi-worker cell even on one core, so
// the race-enabled soak exercises the shard partition itself), checked
// against the fleet contract in Result.Invariants.
func TestFleetChaosSmoke(t *testing.T) {
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
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Invariants(cfg) {
		t.Errorf("invariant violated: %v", e)
	}
	if res.Events != int64(2000*40) {
		t.Errorf("processed %d events, want %d", res.Events, 2000*40)
	}
	t.Logf("fleet smoke: %d sessions, %d events, horizon %.0f virtual s, slowest session %.0f s, median rebuffer %.1f s",
		res.Sessions, res.Events, res.VirtualSec, res.SessionLenSec.Percentile(100), res.RebufferSec.Median())
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
