package core

import (
	"math"
	"runtime"
	"testing"

	"cava/internal/abr"
	"cava/internal/player"
	"cava/internal/trace"
	"cava/internal/video"
)

func TestClassifyRegime(t *testing.T) {
	if ClassifyRegime([]float64{1, 2}) != RegimeUnknown {
		t.Error("too-few samples not unknown")
	}
	stable := []float64{2e6, 2.05e6, 1.95e6, 2.02e6, 1.98e6}
	if ClassifyRegime(stable) != RegimeStable {
		t.Error("near-constant samples not stable")
	}
	volatile := []float64{0.2e6, 5e6, 0.5e6, 8e6, 0.1e6, 4e6}
	if ClassifyRegime(volatile) != RegimeVolatile {
		t.Error("wild samples not volatile")
	}
	if ClassifyRegime([]float64{0, 0, 0, 0}) != RegimeVolatile {
		t.Error("zero-mean treated leniently")
	}
	for _, r := range []Regime{RegimeUnknown, RegimeStable, RegimeModerate, RegimeVolatile} {
		if r.String() == "" {
			t.Error("regime without a name")
		}
	}
}

// TestTunePreservesStructure pins Tune's contract: it replaces exactly the
// per-decision tunables, leaves the structural fields (windows, target,
// horizon, η, lookahead, RefLevel, NumClasses) as the plan was built, gives
// the session a private plan header over the shared tables, and leaves the
// factory's other sessions alone. A tuned session decides exactly as one
// built with those tunables does.
func TestTunePreservesStructure(t *testing.T) {
	v := testVideo()
	f := Factory()
	c, other := f(v).(*CAVA), f(v).(*CAVA)
	shared := c.pl
	before := c.Categories()

	p := DefaultParams()
	p.AlphaComplex, p.AlphaSimple = 1.2, 0.9
	p.Kp, p.Ki = 0.05, 0.0003
	p.UMin, p.UMax = 0.3, 2.2
	p.Q4NoInflate, p.Q4NoInflateBuffer = false, 15
	p.NoDeflateBuffer, p.NoDeflateMaxLevel = 12, 1
	tuned := p
	// Structural fields: every one must be ignored by Tune.
	p.HorizonN, p.InnerWindowSec, p.OuterWindowSec = 3, 20, 100
	p.BaseTargetBuffer, p.TargetCapFactor, p.TargetMax = 40, 3, 70
	p.EtaWeight, p.Lookahead = 2, 4
	p.RefLevel, p.NumClasses = 0, 8
	c.Tune(p)

	if c.pl.p != tuned {
		t.Errorf("tuned params = %+v, want %+v", c.pl.p, tuned)
	}
	if c.pl == shared || other.pl != shared || shared.p != DefaultParams() {
		t.Error("Tune changed the shared plan instead of a private header")
	}
	if &c.pl.target[0] != &shared.target[0] || &c.pl.rbar[0] != &shared.rbar[0] {
		t.Error("Tune rebuilt the tables")
	}
	after := c.Categories()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("classification changed by Tune")
		}
	}

	// A tuned session decides as one built with the tunables.
	ref := NewWith(v, tuned, AllPrinciples, "CAVA")
	for i := 0; i < v.NumChunks(); i++ {
		st := abr.State{ChunkIndex: i, Now: float64(5 * i), Buffer: float64(5 + i%80), Est: 1e6 + 3e4*float64(i%50), PrevLevel: i % 6}
		if got, want := c.Select(st), ref.Select(st); got != want {
			t.Fatalf("chunk %d: tuned session picked %d, built session %d", i, got, want)
		}
	}
}

func TestAutoCAVAAdaptsToRegime(t *testing.T) {
	v := testVideo()
	a := NewAuto(v)
	if a.Name() != "CAVA-auto" {
		t.Errorf("name = %q", a.Name())
	}
	// Feed stable throughput observations through decisions.
	for i := 0; i < 20; i++ {
		a.Select(abr.State{ChunkIndex: i, Now: float64(5 * i), Buffer: 40,
			Est: 2e6, LastThroughputBps: 2e6 * (1 + 0.01*float64(i%2)), PrevLevel: 2})
	}
	if a.Regime() != RegimeStable {
		t.Errorf("regime = %v after stable samples", a.Regime())
	}
	if a.pl.p.UMax != paramsFor(RegimeStable).UMax {
		t.Error("stable params not applied")
	}
	// Now volatile samples flip the regime.
	tputs := []float64{0.2e6, 6e6, 0.4e6, 9e6, 0.3e6, 5e6}
	for i := 20; i < 60; i++ {
		a.Select(abr.State{ChunkIndex: i, Now: float64(5 * i), Buffer: 40,
			Est: 2e6, LastThroughputBps: tputs[i%len(tputs)], PrevLevel: 2})
	}
	if a.Regime() != RegimeVolatile {
		t.Errorf("regime = %v after volatile samples", a.Regime())
	}
	if a.pl.p.Q4NoInflateBuffer != paramsFor(RegimeVolatile).Q4NoInflateBuffer {
		t.Error("volatile params not applied")
	}
}

func TestAutoCAVASessionSane(t *testing.T) {
	v := testVideo()
	cfg := player.DefaultConfig()
	for i := 0; i < 6; i++ {
		res, err := player.Simulate(v, trace.GenLTE(i), NewAuto(v), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Chunks) != v.NumChunks() {
			t.Fatal("auto session incomplete")
		}
	}
}

func TestAutoCAVAComparableToFixed(t *testing.T) {
	// Auto-tuning must not collapse performance relative to fixed CAVA on
	// the environment both were designed for.
	v := testVideo()
	cfg := player.DefaultConfig()
	var fixedBits, autoBits, fixedReb, autoReb float64
	n := 10
	for i := 0; i < n; i++ {
		tr := trace.GenLTE(i)
		f := mustSimulate(t, v, tr, New(v), cfg)
		a := mustSimulate(t, v, tr, NewAuto(v), cfg)
		fixedBits += f.TotalBits
		autoBits += a.TotalBits
		fixedReb += f.TotalRebufferSec
		autoReb += a.TotalRebufferSec
	}
	if autoBits < 0.7*fixedBits {
		t.Errorf("auto delivers %.0f%% of fixed CAVA's data; collapsed", 100*autoBits/fixedBits)
	}
	if autoReb > fixedReb+60 {
		t.Errorf("auto rebuffers far more: %.1f vs %.1f", autoReb, fixedReb)
	}
}

// mustSimulate fails the test on a simulation error; the test fixtures are
// valid by construction.
func mustSimulate(tb testing.TB, v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg player.Config) *player.Result {
	tb.Helper()
	res, err := player.Simulate(v, tr, algo, cfg)
	if err != nil {
		tb.Fatalf("Simulate: %v", err)
	}
	return res
}

// regimeWatch counts an AutoCAVA session's regime changes.
type regimeWatch struct {
	*AutoCAVA
	changes int
}

func (w *regimeWatch) Select(st abr.State) int {
	before := w.Regime()
	level := w.AutoCAVA.Select(st)
	if w.Regime() != before {
		w.changes++
	}
	return level
}

// TestAutoCAVAWindowAllocs pins that the throughput window slides without
// reallocating: a whole ED-youtube-h264 session on GenLTE(3) allocates at
// most as often under cava-auto as under cava, plus the window's one array,
// plus one plan header per regime change. Each count is the fewest
// allocations over 20 sessions: under the race detector, one session in
// four or so allocates one to three objects more than the rest.
func TestAutoCAVAWindowAllocs(t *testing.T) {
	v, tr, cfg := testVideo(), trace.GenLTE(3), player.DefaultConfig()
	cava, auto := Factory(), AutoFactory()
	count := func(f abr.Factory) uint64 {
		f(v) // the factory's plan is built once, outside the count
		fewest := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for i := 0; i < 20; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := player.Simulate(v, tr, f(v), cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			fewest = min(fewest, ms.Mallocs-before)
		}
		return fewest
	}
	w := &regimeWatch{AutoCAVA: auto(v).(*AutoCAVA)}
	if _, err := player.Simulate(v, tr, w, cfg); err != nil {
		t.Fatal(err)
	}
	base, got := count(cava), count(auto)
	if limit := base + 1 + uint64(w.changes); got > limit {
		t.Errorf("a cava-auto session allocates %v times, cava %v with %d regime changes: want at most %v",
			got, base, w.changes, limit)
	}
	t.Logf("cava %v allocations, cava-auto %v with %d regime changes", base, got, w.changes)
}
