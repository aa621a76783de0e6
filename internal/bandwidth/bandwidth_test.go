package bandwidth

import (
	"math"
	"testing"
	"testing/quick"

	"cava/internal/trace"
)

func TestHarmonicMeanExact(t *testing.T) {
	h := NewHarmonicMean(5)
	// Throughputs 1, 2 and 4 Mbps: harmonic mean = 3/(1+0.5+0.25) Mbps.
	h.ObserveDownload(1e6, 1)
	h.ObserveDownload(2e6, 1)
	h.ObserveDownload(4e6, 1)
	want := 3.0 / (1 + 0.5 + 0.25) * 1e6
	if got := h.Predict(0); math.Abs(got-want) > 1 {
		t.Errorf("harmonic mean = %v, want %v", got, want)
	}
}

func TestHarmonicMeanWindow(t *testing.T) {
	h := NewHarmonicMean(2)
	h.ObserveDownload(1e6, 1) // falls out of the window
	h.ObserveDownload(2e6, 1)
	h.ObserveDownload(2e6, 1)
	if got := h.Predict(0); math.Abs(got-2e6) > 1 {
		t.Errorf("windowed harmonic mean = %v, want 2e6", got)
	}
}

func TestHarmonicMeanAtMostArithmetic(t *testing.T) {
	f := func(samples []uint32) bool {
		h := NewHarmonicMean(0)
		sum, n := 0.0, 0
		for _, s := range samples {
			tp := float64(s%10000) + 1
			h.ObserveDownload(tp, 1)
			n++
			if n > DefaultWindow {
				continue
			}
		}
		if n == 0 {
			return h.Predict(0) == 0
		}
		// Recompute the arithmetic mean over the retained window.
		start := 0
		if n > DefaultWindow {
			start = n - DefaultWindow
		}
		cnt := 0
		for i, s := range samples {
			if i < start {
				continue
			}
			sum += float64(s%10000) + 1
			cnt++
		}
		return h.Predict(0) <= sum/float64(cnt)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPredictorsIgnoreInvalidObservations(t *testing.T) {
	preds := []Predictor{NewHarmonicMean(5)}
	for _, p := range preds {
		p.ObserveDownload(0, 1)
		p.ObserveDownload(1e6, 0)
		p.ObserveDownload(-1, -1)
		if got := p.Predict(0); got != 0 {
			t.Errorf("%T: prediction after invalid observations = %v, want 0", p, got)
		}
	}
}

func TestReset(t *testing.T) {
	preds := []Predictor{NewHarmonicMean(5)}
	for _, p := range preds {
		p.ObserveDownload(1e6, 1)
		p.Reset()
		if got := p.Predict(0); got != 0 {
			t.Errorf("%T: prediction after Reset = %v, want 0", p, got)
		}
	}
}

func TestNoisyOracleExactWhenErrZero(t *testing.T) {
	tr := trace.Constant("c", 2.5e6, 60, 1)
	o := NewNoisyOracle(tr, 0, 1)
	for _, tm := range []float64{0, 10, 59} {
		if got := o.Predict(tm); got != 2.5e6 {
			t.Errorf("Predict(%v) = %v, want 2.5e6", tm, got)
		}
	}
}

func TestNoisyOracleBounds(t *testing.T) {
	tr := trace.Constant("c", 2e6, 60, 1)
	o := NewNoisyOracle(tr, 0.5, 7)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		p := o.Predict(5)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
		if p < 1e6-1 || p > 3e6+1 {
			t.Fatalf("prediction %v outside C(1±0.5)", p)
		}
	}
	// The uniform distribution should fill most of the range.
	if lo > 1.2e6 || hi < 2.8e6 {
		t.Errorf("predictions poorly spread: [%v, %v]", lo, hi)
	}
}

func TestNoisyOracleDeterministicPerSeed(t *testing.T) {
	tr := trace.Constant("c", 2e6, 60, 1)
	a := NewNoisyOracle(tr, 0.25, 99)
	b := NewNoisyOracle(tr, 0.25, 99)
	for i := 0; i < 20; i++ {
		if a.Predict(1) != b.Predict(1) {
			t.Fatal("same-seed oracles diverge")
		}
	}
}

func TestNoisyOracleTracksTrace(t *testing.T) {
	tr := trace.Step("s", 1e6, 4e6, 10, 40, 1)
	o := NewNoisyOracle(tr, 0, 1)
	if o.Predict(0) != 4e6 {
		t.Error("oracle should see the high step at t=0")
	}
	if o.Predict(10) != 1e6 {
		t.Error("oracle should see the low step at t=10")
	}
}

// TestNoisyOracleHorizonWindow is the off-by-one regression test: the
// oracle averages the half-open window [now, now+h), hand-computed here on
// a trace whose samples are all distinct. With h = 8 and 1 s intervals the
// average covers exactly the 8 samples at now..now+7; the old step count
// (int(h/interval) + 1) reached the 9th sample at now+8.
func TestNoisyOracleHorizonWindow(t *testing.T) {
	tr := &trace.Trace{ID: "ramp", IntervalSec: 1,
		Samples: []float64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 9e6, 10e6, 11e6, 12e6}}
	o := NewNoisyOracle(tr, 0, 1)
	// Mean of samples 0..7 — sample 8 (9e6) must NOT contribute.
	want := (1e6 + 2e6 + 3e6 + 4e6 + 5e6 + 6e6 + 7e6 + 8e6) / 8
	if got := o.Predict(0); got != want {
		t.Errorf("Predict(0) over [0,8) = %v, want %v", got, want)
	}
	// Shifted window: samples 2..9.
	want = (3e6 + 4e6 + 5e6 + 6e6 + 7e6 + 8e6 + 9e6 + 10e6) / 8
	if got := o.Predict(2); got != want {
		t.Errorf("Predict(2) over [2,10) = %v, want %v", got, want)
	}
	// A horizon that does not divide evenly still samples every interval
	// boundary strictly before now+h: h = 2.5 covers samples 0, 1 and 2.
	o.Horizon = 2.5
	want = (1e6 + 2e6 + 3e6) / 3
	if got := o.Predict(0); got != want {
		t.Errorf("Predict(0) over [0,2.5) = %v, want %v", got, want)
	}
	// A horizon shorter than one interval degenerates to the current sample.
	o.Horizon = 0.25
	if got := o.Predict(3); got != 4e6 {
		t.Errorf("Predict(3) over [3,3.25) = %v, want 4e6", got)
	}
}

// naiveHarmonicMean is the slice-based reference implementation the fixed
// ring replaced: append every throughput, keep the last W, harmonic-mean
// them oldest to newest.
type naiveHarmonicMean struct {
	window int
	hist   []float64
}

func (n *naiveHarmonicMean) ObserveDownload(bits, seconds float64) {
	if seconds <= 0 || bits <= 0 {
		return
	}
	n.hist = append(n.hist, bits/seconds)
	if len(n.hist) > n.window {
		n.hist = n.hist[len(n.hist)-n.window:]
	}
}

func (n *naiveHarmonicMean) Predict() float64 {
	if len(n.hist) == 0 {
		return 0
	}
	inv := 0.0
	for _, tp := range n.hist {
		inv += 1 / tp
	}
	return float64(len(n.hist)) / inv
}

func (n *naiveHarmonicMean) Reset() { n.hist = nil }

// TestHarmonicMeanRingMatchesNaive cross-checks the ring against the naive
// append-window reference over randomized seeded observation streams:
// partial windows, full windows with wraparound, invalid observations and
// Reset-then-refill sequences must all stay bit-identical. Each step queries
// twice at different times, as the step core does per chunk (once when the
// chunk begins, once when the decision state is refreshed).
func TestHarmonicMeanRingMatchesNaive(t *testing.T) {
	for _, window := range []int{1, 2, 5, 8} {
		// A fixed LCG drives the stream without math/rand, keeping the
		// sequence reproducible across Go releases.
		lcg := uint64(0x9e3779b97f4a7c15) + uint64(window)
		next := func() uint64 {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return lcg >> 33
		}
		ring := NewHarmonicMean(window)
		naive := &naiveHarmonicMean{window: window}
		for i := 0; i < 500; i++ {
			switch next() % 10 {
			case 0: // invalid observations must be ignored identically
				ring.ObserveDownload(0, 1)
				naive.ObserveDownload(0, 1)
				ring.ObserveDownload(1e6, -2)
				naive.ObserveDownload(1e6, -2)
			case 1: // reset-then-refill must restart both cleanly
				ring.Reset()
				naive.Reset()
			default:
				bits := float64(next()%100000) + 1
				seconds := (float64(next()%1000) + 1) / 100
				ring.ObserveDownload(bits, seconds)
				naive.ObserveDownload(bits, seconds)
			}
			want := naive.Predict()
			for _, now := range []float64{float64(i), float64(i) + 0.5} {
				if got := ring.Predict(now); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("window %d, step %d, now %v: ring predicts %v, naive reference %v",
						window, i, now, got, want)
				}
			}
		}
	}
}
