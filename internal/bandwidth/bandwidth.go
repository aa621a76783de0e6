// Package bandwidth provides the application-level throughput predictors
// ABR logic uses to estimate the network (§6.1): the harmonic mean of the
// past five chunk downloads (robust to outliers, the paper's default for
// every scheme), and a noisy oracle that injects controlled prediction
// error for the §6.7 sensitivity study.
package bandwidth

import (
	"math"
	"math/rand"

	"cava/internal/trace"
)

// Predictor estimates the network bandwidth available to the next chunk
// download from application-level observations.
type Predictor interface {
	// ObserveDownload records a completed chunk download of `bits` bits
	// that took `seconds` seconds.
	ObserveDownload(bits, seconds float64)
	// Predict returns the predicted bandwidth in bits/sec for a download
	// starting at absolute time now. It returns 0 when no estimate is
	// available yet (before any download completes).
	Predict(now float64) float64
	// Reset clears all observation state.
	Reset()
}

// DefaultWindow is the harmonic-mean window used throughout the paper.
const DefaultWindow = 5

// HarmonicMean predicts with the harmonic mean of the last W chunk
// throughputs. The harmonic mean underweights short high-rate bursts, which
// makes it robust to measurement outliers.
// The window is a fixed ring: the append-and-reslice history it replaced
// allocated on every few observations, which the fleet engine's zero-alloc
// per-event contract (internal/fleet) cannot afford across 10⁵–10⁶
// concurrent sessions. The mean is computed once per observation, so
// Predict, which the step core calls twice per chunk, is a field read.
type HarmonicMean struct {
	ring  []float64 // the window: len(ring) = W
	head  int       // index of the oldest observation
	count int       // observations held (≤ W)
	est   float64   // harmonic mean of the held observations; 0 when none
}

// NewHarmonicMean returns a harmonic-mean predictor over the last window
// downloads; window defaults to DefaultWindow when non-positive.
func NewHarmonicMean(window int) *HarmonicMean {
	if window <= 0 {
		window = DefaultWindow
	}
	return &HarmonicMean{ring: make([]float64, window)}
}

// ObserveDownload implements Predictor. The inverse sum runs oldest to
// newest — the same order as the sliced history the ring replaced — so
// predictions are bit-identical to the previous implementation.
func (h *HarmonicMean) ObserveDownload(bits, seconds float64) {
	if seconds <= 0 || bits <= 0 {
		return
	}
	w := len(h.ring)
	// The next slot; in a full ring it is the oldest, which is dropped.
	tail := h.head + h.count
	if tail >= w {
		tail -= w
	}
	h.ring[tail] = bits / seconds
	if h.count < w {
		h.count++
	} else if h.head++; h.head == w {
		h.head = 0
	}
	inv := 0.0
	for k, i := 0, h.head; k < h.count; k++ {
		inv += 1 / h.ring[i]
		if i++; i == w {
			i = 0
		}
	}
	h.est = float64(h.count) / inv
}

// Predict implements Predictor.
func (h *HarmonicMean) Predict(float64) float64 { return h.est }

// Reset implements Predictor.
func (h *HarmonicMean) Reset() { h.head, h.count, h.est = 0, 0, 0 }

// NoisyOracle predicts the true bandwidth perturbed by a uniform relative
// error in ±Err, reproducing the §6.7 controlled prediction-error study:
// with Err = 0 it is a perfect predictor; with Err = 0.5 predictions are
// uniform in C(t)·(1 ± 50%). The "true" bandwidth is the mean over the next
// Horizon seconds of the trace — what an ideal predictor would report for
// an imminent chunk download — rather than the instantaneous sample, which
// on a per-second LTE trace is itself noise.
type NoisyOracle struct {
	tr  *trace.Trace
	err float64
	rng *rand.Rand
	// Horizon is the averaging window in seconds (default 8).
	Horizon float64
}

// NewNoisyOracle returns a noisy oracle over the given trace with relative
// error magnitude err in [0,1) and a deterministic seed.
func NewNoisyOracle(tr *trace.Trace, err float64, seed int64) *NoisyOracle {
	return &NoisyOracle{tr: tr, err: err, rng: rand.New(rand.NewSource(seed)), Horizon: 8}
}

// ObserveDownload implements Predictor; the oracle ignores observations.
func (o *NoisyOracle) ObserveDownload(bits, seconds float64) {}

// Predict implements Predictor.
func (o *NoisyOracle) Predict(now float64) float64 {
	h := o.Horizon
	if h <= 0 {
		h = 8
	}
	// Average the trace over the half-open window [now, now+h): one sample
	// per interval boundary strictly before now+h. The previous step count
	// (int(h/interval) + 1) reached one interval past the horizon whenever
	// h divided evenly — 9 samples for h=8 at 1 s intervals — silently
	// widening the documented window.
	steps := int(math.Ceil(h / o.tr.IntervalSec))
	if steps < 1 {
		steps = 1
	}
	sum, n := 0.0, 0
	for k := 0; k < steps; k++ {
		sum += o.tr.BandwidthAt(now + float64(k)*o.tr.IntervalSec)
		n++
	}
	c := sum / float64(n)
	if o.err <= 0 {
		return c
	}
	f := 1 + o.err*(2*o.rng.Float64()-1)
	return c * f
}

// Reset implements Predictor; the oracle keeps no observation state.
func (o *NoisyOracle) Reset() {}
