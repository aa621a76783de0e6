package core

import (
	"math"

	"cava/internal/abr"
	"cava/internal/video"
)

// Auto-tuning extension (inspired by Oboe, SIGCOMM'18, which the paper's
// related work highlights): CAVA's differential-treatment strength and
// control clamps are picked offline for a broad operating range; AutoCAVA
// re-tunes them online from the observed throughput regime. On stable
// links it leans into differential treatment (nothing threatens the
// buffer); on highly volatile links it softens the inflation and widens
// the low-buffer guard, trading a little Q4 quality for stall safety.

// Regime classifies the recent network volatility.
type Regime int

// Volatility regimes.
const (
	// RegimeUnknown means not enough samples yet.
	RegimeUnknown Regime = iota
	// RegimeStable is CoV below 0.30.
	RegimeStable
	// RegimeModerate is CoV in [0.30, 0.70).
	RegimeModerate
	// RegimeVolatile is CoV of 0.70 and above.
	RegimeVolatile
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeStable:
		return "stable"
	case RegimeModerate:
		return "moderate"
	case RegimeVolatile:
		return "volatile"
	default:
		return "unknown"
	}
}

// ClassifyRegime computes the volatility regime of throughput samples.
func ClassifyRegime(samples []float64) Regime {
	if len(samples) < 4 {
		return RegimeUnknown
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	if mean <= 0 {
		return RegimeVolatile
	}
	ss := 0.0
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	cov := math.Sqrt(ss/float64(len(samples))) / mean
	switch {
	case cov < 0.30:
		return RegimeStable
	case cov < 0.70:
		return RegimeModerate
	default:
		return RegimeVolatile
	}
}

// paramsFor maps a regime onto CAVA tunables.
func paramsFor(r Regime) Params {
	p := DefaultParams()
	switch r {
	case RegimeStable:
		// Nothing threatens the buffer: spend harder on complex scenes
		// and allow a brisker startup.
		p.AlphaComplex = 1.5
		p.AlphaSimple = 0.75
		p.UMax = 2.0
		p.Q4NoInflateBuffer = 12
	case RegimeVolatile:
		// Bursty link: soften the inflation, save more on simple scenes,
		// and keep the no-inflate guard wide.
		p.AlphaComplex = 1.25
		p.AlphaSimple = 0.65
		p.Q4NoInflateBuffer = 30
	}
	return p
}

// Tune replaces the session's per-decision tunables mid-session: the α's,
// Kp and Ki, UMin and UMax, and the no-inflate and no-deflate thresholds.
// Every other field of p is ignored. The plan's tables were computed from
// the window, target, horizon, η and lookahead fields and the chunk
// classification from RefLevel and NumClasses, so those stay fixed. The
// session gets a private copy of the plan header and keeps sharing the
// tables, and the PID state carries over.
func (c *CAVA) Tune(p Params) {
	h := *c.pl
	h.p.AlphaComplex, h.p.AlphaSimple = p.AlphaComplex, p.AlphaSimple
	h.p.Kp, h.p.Ki = p.Kp, p.Ki
	h.p.UMin, h.p.UMax = p.UMin, p.UMax
	h.p.Q4NoInflate, h.p.Q4NoInflateBuffer = p.Q4NoInflate, p.Q4NoInflateBuffer
	h.p.NoDeflateBuffer, h.p.NoDeflateMaxLevel = p.NoDeflateBuffer, p.NoDeflateMaxLevel
	c.pl = &h
}

// AutoCAVA wraps CAVA with online regime detection over the observed
// per-chunk throughputs, re-tuning every AdaptEvery decisions.
type AutoCAVA struct {
	CAVA
	// AdaptEvery is the re-tune period in chunks (8 by default).
	AdaptEvery int
	// WindowSize is how many throughput samples feed the detector (24).
	// Set it before the first decision: the window's array is sized from it
	// then.
	//lint:allow units WindowSize counts samples, not a data size
	WindowSize int

	// samples holds the window, the newest WindowSize samples in time
	// order, at its end (see observe).
	samples []float64
	since   int
	regime  Regime
}

// NewAuto returns an auto-tuning CAVA instance.
func NewAuto(v *video.Video) *AutoCAVA {
	return newAuto(newPlan(v, DefaultParams(), AllPrinciples, "CAVA-auto"))
}

// newAuto starts an AutoCAVA session on a plan of the default parameters.
func newAuto(pl *plan) *AutoCAVA {
	return &AutoCAVA{CAVA: CAVA{pl: pl}, AdaptEvery: 8, WindowSize: 24}
}

// AutoFactory returns the AutoCAVA factory; its sessions on one video
// share one plan until they retune.
func AutoFactory() abr.Factory {
	m := &planMemo{p: DefaultParams(), pr: AllPrinciples, name: "CAVA-auto"}
	return func(v *video.Video) abr.Algorithm { return newAuto(m.get(v)) }
}

// Regime exposes the currently detected regime.
func (a *AutoCAVA) Regime() Regime { return a.regime }

// Select implements abr.Algorithm: observe, maybe re-tune, then delegate.
func (a *AutoCAVA) Select(st abr.State) int {
	if st.LastThroughputBps > 0 {
		a.observe(st.LastThroughputBps)
	}
	a.since++
	if a.since >= a.AdaptEvery {
		a.since = 0
		window := a.samples[max(0, len(a.samples)-a.WindowSize):]
		if r := ClassifyRegime(window); r != RegimeUnknown && r != a.regime {
			a.regime = r
			a.Tune(paramsFor(r))
		}
	}
	return a.CAVA.Select(st)
}

// observe appends one throughput sample. The array behind samples is
// allocated once, at the first sample, with room for two windows; when it
// fills, the newest WindowSize-1 samples move to its front, so the window
// slides without reallocating and stays contiguous.
func (a *AutoCAVA) observe(bps float64) {
	w := max(a.WindowSize, 1)
	switch {
	case a.samples == nil:
		a.samples = make([]float64, 0, 2*w)
	case len(a.samples) == cap(a.samples):
		a.samples = a.samples[:copy(a.samples, a.samples[len(a.samples)-w+1:])]
	}
	a.samples = append(a.samples, bps)
}
