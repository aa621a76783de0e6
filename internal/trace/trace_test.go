package trace

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBandwidthAt(t *testing.T) {
	tr := &Trace{ID: "t", IntervalSec: 2, Samples: []float64{10, 20, 30}}
	cases := []struct {
		time float64
		want float64
	}{
		{0, 10}, {1.9, 10}, {2, 20}, {3.5, 20}, {4, 30}, {5.99, 30},
		{6, 10},  // wraps
		{-1, 10}, // negative clamps to 0
		{13, 10}, // 13 mod 6 = 1 -> first sample
	}
	for _, c := range cases {
		if got := tr.BandwidthAt(c.time); got != c.want {
			t.Errorf("BandwidthAt(%v) = %v, want %v", c.time, got, c.want)
		}
	}
}

// TestBandwidthAtTotal pins BandwidthAt at times whose window index does
// not fit an int: each reads a sample of the trace instead of indexing out
// of range, and every in-range time reads the sample of the plain
// int(tm/I) % n index.
func TestBandwidthAtTotal(t *testing.T) {
	tr := &Trace{ID: "t", IntervalSec: 0.7, Samples: []float64{10, 20, 30, 40, 50}}
	for _, tm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64, 1e19} {
		got := tr.BandwidthAt(tm)
		if !slices.Contains(tr.Samples, got) {
			t.Errorf("BandwidthAt(%v) = %v, not a sample of the trace", tm, got)
		}
	}
	for _, tm := range []float64{0, 0.35, 0.7, 3.49, 3.5, 1e6 + 0.3, 1e15, 6e18} {
		want := tr.Samples[int(tm/tr.IntervalSec)%len(tr.Samples)]
		if got := tr.BandwidthAt(tm); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("BandwidthAt(%v) = %v, want %v", tm, got, want)
		}
	}
	// Past int range the index wraps by the exact remainder: 1e19 s at
	// 1 s intervals is window 1e19, and 1e19 mod 5 = 0.
	if got := (&Trace{IntervalSec: 1, Samples: tr.Samples}).BandwidthAt(1e19); got != 10 {
		t.Errorf("BandwidthAt(1e19) = %v, want the first sample", got)
	}
}

func TestBandwidthAtEmpty(t *testing.T) {
	tr := &Trace{IntervalSec: 1}
	if got := tr.BandwidthAt(5); got != 0 {
		t.Errorf("empty trace bandwidth = %v, want 0", got)
	}
}

func TestDownloadTimeConstant(t *testing.T) {
	tr := Constant("c", 1e6, 100, 1)
	// 5e6 bits at 1e6 bps = 5 seconds, regardless of start offset.
	for _, start := range []float64{0, 0.5, 3, 97} {
		if got := tr.DownloadTime(start, 5e6); !almostEqual(got, 5, 1e-9) {
			t.Errorf("DownloadTime(start=%v) = %v, want 5", start, got)
		}
	}
}

func TestDownloadTimeStep(t *testing.T) {
	// 1 Mbps for 10s, then 2 Mbps for 10s, repeating.
	tr := Step("s", 1e6, 2e6, 10, 40, 1)
	// Step starts high: samples 0..9 = 2e6, 10..19 = 1e6.
	// Download 25e6 bits from t=0: 20e6 in first 10s, remaining 5e6 at
	// 1 Mbps takes 5s. Total 15s.
	if got := tr.DownloadTime(0, 25e6); !almostEqual(got, 15, 1e-9) {
		t.Errorf("DownloadTime = %v, want 15", got)
	}
}

func TestDownloadTimeMidSample(t *testing.T) {
	tr := &Trace{ID: "m", IntervalSec: 1, Samples: []float64{1e6, 3e6}}
	// Start at t=0.5: 0.5s left at 1 Mbps (0.5e6 bits), then 3 Mbps.
	// Download 2e6 bits: 0.5e6 in 0.5s, then 1.5e6 at 3e6 -> 0.5s. Total 1s.
	if got := tr.DownloadTime(0.5, 2e6); !almostEqual(got, 1.0, 1e-9) {
		t.Errorf("DownloadTime = %v, want 1.0", got)
	}
}

func TestDownloadTimeOutage(t *testing.T) {
	tr := &Trace{ID: "o", IntervalSec: 1, Samples: []float64{1e6, 0, 0, 1e6}}
	// 1.5e6 bits from t=0: 1e6 in 1s, two outage seconds, then 0.5e6 in
	// 0.5s. Total 3.5s.
	if got := tr.DownloadTime(0, 1.5e6); !almostEqual(got, 3.5, 1e-9) {
		t.Errorf("DownloadTime with outage = %v, want 3.5", got)
	}
}

func TestDownloadTimeWraps(t *testing.T) {
	tr := &Trace{ID: "w", IntervalSec: 1, Samples: []float64{1e6}}
	// One-second trace: 10e6 bits wraps around ten times.
	if got := tr.DownloadTime(0, 10e6); !almostEqual(got, 10, 1e-9) {
		t.Errorf("DownloadTime wrap = %v, want 10", got)
	}
}

// TestDownloadTimeNonDyadicInterval is the window-boundary regression test.
// At a 0.1 s interval, 4.3/0.1 rounds to just below 43, so a walk that
// re-derives the window index from the clock never leaves window 42: it
// charged every later bit at sample 42's rate (10 s instead of 1.045 s),
// and with sample 42 at zero it never returned. Each call runs under a
// deadline so a hang fails the test instead of the suite.
func TestDownloadTimeNonDyadicInterval(t *testing.T) {
	for _, c := range []struct{ dipBps, want float64 }{{0.1e6, 1.045}, {0, 1.05}} {
		s := make([]float64, 100)
		for i := range s {
			s[i] = 1e6
		}
		s[42] = c.dipBps
		tr := &Trace{ID: "decisecond", IntervalSec: 0.1, Samples: s}
		// From 4.25 s: 0.05 s left in window 42 at the dip, then 1 Mbps.
		done := make(chan float64, 1)
		go func() { done <- tr.DownloadTime(4.25, 1e6) }()
		select {
		case got := <-done:
			if !almostEqual(got, c.want, 1e-9) {
				t.Errorf("sample 42 at %g bps: DownloadTime = %v, want %v", c.dipBps, got, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("sample 42 at %g bps: DownloadTime did not return within 5 s", c.dipBps)
		}
	}
}

// TestDownloadTimeTinyBandwidth is the unbounded-walk regression test: at
// 1e-294 b/s (cava-sim's const:1e-300) 4e5 bits take about 4e299 s, which
// a window-by-window walk never finished. Skipping whole laps makes it a
// few laps' work.
func TestDownloadTimeTinyBandwidth(t *testing.T) {
	tr := Constant("tiny", 1e-294, 1200, 1)
	done := make(chan float64, 1)
	go func() { done <- tr.DownloadTime(3, 4e5) }()
	select {
	case got := <-done:
		if want := 4e5 / 1e-294; !almostEqual(got, want, 1e-9*want) {
			t.Errorf("DownloadTime = %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Error("DownloadTime did not return within 5 s")
	}
}

func TestDownloadTimeEdgeCases(t *testing.T) {
	tr := Constant("e", 1e6, 10, 1)
	if got := tr.DownloadTime(0, 0); got != 0 {
		t.Errorf("zero-size download took %v", got)
	}
	if got := tr.DownloadTime(0, -5); got != 0 {
		t.Errorf("negative-size download took %v", got)
	}
	empty := &Trace{IntervalSec: 1}
	if got := empty.DownloadTime(0, 1); !math.IsInf(got, 1) {
		t.Errorf("empty trace download = %v, want +Inf", got)
	}
	allZero := &Trace{IntervalSec: 1, Samples: []float64{0, 0}}
	if got := allZero.DownloadTime(0, 1); !math.IsInf(got, 1) {
		t.Errorf("all-zero trace download = %v, want +Inf", got)
	}
}

func TestDownloadTimeMonotoneInBits(t *testing.T) {
	tr := GenLTE(7)
	f := func(a, b uint16) bool {
		x, y := float64(a)*1e4, float64(b)*1e4
		if x > y {
			x, y = y, x
		}
		return tr.DownloadTime(3, x) <= tr.DownloadTime(3, y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDownloadTimeAdditive(t *testing.T) {
	// Downloading a+b bits equals downloading a, then b from where a
	// finished (piecewise-constant process, no per-request overhead).
	tr := GenLTE(3)
	f := func(a, b uint16) bool {
		x, y := float64(a)*1e4+1, float64(b)*1e4+1
		whole := tr.DownloadTime(5, x+y)
		first := tr.DownloadTime(5, x)
		second := tr.DownloadTime(5+first, y)
		return almostEqual(whole, first+second, 1e-6*whole+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	tr := &Trace{ID: "s", IntervalSec: 1, Samples: []float64{2, 4, 6}}
	if got := tr.Mean(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := tr.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := tr.Max(); got != 6 {
		t.Errorf("Max = %v, want 6", got)
	}
	wantCoV := math.Sqrt(8.0/3.0) / 4
	if got := tr.CoV(); !almostEqual(got, wantCoV, 1e-12) {
		t.Errorf("CoV = %v, want %v", got, wantCoV)
	}
	if got := tr.Duration(); got != 3 {
		t.Errorf("Duration = %v, want 3", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	tr := &Trace{IntervalSec: 1}
	if tr.Mean() != 0 || tr.CoV() != 0 || tr.Min() != 0 || tr.Max() != 0 {
		t.Error("empty trace stats should all be 0")
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{ID: "x", IntervalSec: 1, Samples: []float64{1, 2}}
	s := tr.Scale(2.5)
	if s.Samples[0] != 2.5 || s.Samples[1] != 5 {
		t.Errorf("Scale result = %v", s.Samples)
	}
	if tr.Samples[0] != 1 {
		t.Error("Scale mutated the original")
	}
}

func TestSlice(t *testing.T) {
	tr := &Trace{ID: "t", IntervalSec: 1, Samples: []float64{1, 2, 3, 4, 5}}
	s, err := tr.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 3 || s.Samples[0] != 2 || s.Samples[2] != 4 {
		t.Errorf("slice = %v", s.Samples)
	}
	// Clamping.
	s, err = tr.Slice(-5, 100)
	if err != nil || len(s.Samples) != 5 {
		t.Errorf("clamped slice = %v, %v", s, err)
	}
	if _, err := tr.Slice(4, 4); err == nil {
		t.Error("empty slice accepted")
	}
}

func TestValidate(t *testing.T) {
	good := Constant("g", 1e6, 10, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	cases := []*Trace{
		{ID: "bad-interval", IntervalSec: 0, Samples: []float64{1}},
		{ID: "no-samples", IntervalSec: 1},
		{ID: "negative", IntervalSec: 1, Samples: []float64{1, -2}},
		{ID: "nan", IntervalSec: 1, Samples: []float64{math.NaN()}},
		{ID: "inf", IntervalSec: 1, Samples: []float64{math.Inf(1)}},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("trace %s should fail validation", c.ID)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := GenLTE(42), GenLTE(42)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("LTE generation not deterministic in length")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("LTE sample %d differs across generations", i)
		}
	}
	c, d := GenFCC(17), GenFCC(17)
	for i := range c.Samples {
		if c.Samples[i] != d.Samples[i] {
			t.Fatalf("FCC sample %d differs across generations", i)
		}
	}
	if GenLTE(1).ID == GenLTE(2).ID {
		t.Error("distinct indices share an ID")
	}
}

func TestGeneratedTraceProperties(t *testing.T) {
	for _, tr := range GenLTESet(50) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("LTE trace invalid: %v", err)
		}
		if tr.IntervalSec != LTEIntervalSec {
			t.Errorf("%s interval = %v", tr.ID, tr.IntervalSec)
		}
		if tr.Duration() < MinTraceDurationSec {
			t.Errorf("%s duration %v < %v", tr.ID, tr.Duration(), MinTraceDurationSec)
		}
		if m := tr.Mean(); m < 0.2*Mbps || m > 15*Mbps {
			t.Errorf("%s mean %v outside plausible LTE band", tr.ID, m)
		}
	}
	for _, tr := range GenFCCSet(50) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("FCC trace invalid: %v", err)
		}
		if tr.IntervalSec != FCCIntervalSec {
			t.Errorf("%s interval = %v", tr.ID, tr.IntervalSec)
		}
		if tr.Duration() < MinTraceDurationSec {
			t.Errorf("%s too short", tr.ID)
		}
		if m := tr.Mean(); m < 0.8*Mbps || m > 30*Mbps {
			t.Errorf("%s mean %v outside plausible broadband band", tr.ID, m)
		}
	}
}

func TestLTERoughlyBurstierThanFCC(t *testing.T) {
	// The LTE set should be substantially more variable than the FCC set,
	// mirroring the §6.3 observation that FCC's smoother profiles reduce
	// rebuffering for every scheme.
	lte, fcc := 0.0, 0.0
	n := 40
	for i := 0; i < n; i++ {
		lte += GenLTE(i).CoV()
		fcc += GenFCC(i).CoV()
	}
	if lte/float64(n) < 1.5*fcc/float64(n) {
		t.Errorf("LTE mean CoV %.3f not clearly above FCC %.3f", lte/float64(n), fcc/float64(n))
	}
}

func TestLTEHasOutages(t *testing.T) {
	found := false
	for i := 0; i < 30 && !found; i++ {
		for _, s := range GenLTE(i).Samples {
			if s == 0 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no outage samples in 30 LTE traces; generator lost its outage model")
	}
}

func TestConstantAndStepHelpers(t *testing.T) {
	c := Constant("c", 5, 10, 2)
	if len(c.Samples) != 5 {
		t.Errorf("Constant has %d samples, want 5", len(c.Samples))
	}
	s := Step("s", 1, 2, 3, 12, 1)
	if s.Samples[0] != 2 || s.Samples[3] != 1 || s.Samples[6] != 2 {
		t.Errorf("Step pattern wrong: %v", s.Samples)
	}
	tiny := Constant("t", 1, 0.1, 1)
	if len(tiny.Samples) != 1 {
		t.Errorf("Constant with sub-interval duration has %d samples, want 1", len(tiny.Samples))
	}
}
