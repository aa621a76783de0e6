// Package trace models time-varying network bandwidth as a sampled series
// and provides seeded generators for the two trace families the CAVA paper
// evaluates on: drive-test LTE traces (per-second samples, bursty, with
// outages) and FCC fixed-broadband traces (per-5-second samples, smooth).
//
// All bandwidth values are in bits per second; all times are in seconds.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// Trace is a bandwidth time series sampled at a fixed interval. Sample i
// covers the half-open time window [i*IntervalSec, (i+1)*IntervalSec). When the
// simulation runs past the end of the series the trace wraps around, so a
// Trace behaves as an infinite bandwidth process; the generated traces are
// at least 18 minutes long (longer than any 10-minute video session), so
// wrap-around only matters for pathological sessions.
type Trace struct {
	// ID identifies the trace within its set (e.g. "lte-017").
	ID string
	// IntervalSec is the sampling interval in seconds (1 for LTE, 5 for FCC).
	IntervalSec float64
	// Samples holds the per-interval average bandwidth in bits/second.
	Samples []float64
}

// Duration returns the total covered time in seconds.
func (t *Trace) Duration() float64 {
	return float64(len(t.Samples)) * t.IntervalSec
}

// BandwidthAt returns the bandwidth in effect at absolute time tm (seconds).
// Negative times are treated as 0; times past the end wrap around. It is
// total: a NaN or infinite time reads the first sample, and a time too
// large for an int window index wraps by an exact float remainder.
func (t *Trace) BandwidthAt(tm float64) float64 {
	n := len(t.Samples)
	if n == 0 {
		return 0
	}
	w := tm / t.IntervalSec
	switch {
	case !(w > 0) || math.IsInf(w, 1): // negative, zero, NaN or +Inf
		return t.Samples[0]
	case w >= math.MaxInt64:
		w = math.Mod(w, float64(n))
	}
	return t.Samples[int(w)%n]
}

// DownloadTime returns the time needed to transfer the given number of bits
// starting at absolute time `start`, integrating the piecewise-constant
// bandwidth process (wrapping past the end). Outage samples (zero bandwidth)
// simply contribute elapsed time with no progress.
//
// A zero- or negative-size transfer completes instantly; on a trace whose
// lap carries no bits the transfer never completes and DownloadTime is
// +Inf.
//
// The cost is O(windows crossed), independent of the trace length, and at
// most about four laps: the walk counts windows by index from
// w = ⌊start/I⌋ (window w ends at (w+1)·I) and never re-derives w from the
// clock (at intervals such as 0.1 s, (k+1)·I/I can round just below k+1,
// which would hold the walk in window k). When the walk wraps past the
// trace's end for the second time it has crossed one full lap, so it
// skips all but the last whole lap still to go at once, and a tiny
// bandwidth cannot make a call unbounded. A call that wraps fewer than
// twice, or has less than two laps to go at its second wrap, returns what
// the plain walk returns, bit for bit.
func (t *Trace) DownloadTime(start, bits float64) float64 {
	if bits <= 0 {
		return 0
	}
	n := len(t.Samples)
	if n == 0 {
		return math.Inf(1)
	}

	w := math.Floor(start / t.IntervalSec)
	idx := int(w) % n
	if idx < 0 {
		idx += n
	}
	elapsed := 0.0
	remaining := bits
	now := start
	wraps := 0
	for remaining > 0 {
		bw := t.Samples[idx]
		// Time left inside the current sample window. Past 2^53 windows, or
		// once the clock overflows after a skip, the subtraction loses the
		// window, which then counts whole.
		windowEnd := (w + 1) * t.IntervalSec
		slot := windowEnd - now
		if !(slot > 0) {
			slot = t.IntervalSec
		}
		if bw > 0 {
			need := remaining / bw
			if need <= slot {
				return elapsed + need
			}
			remaining -= bw * slot
		}
		elapsed += slot
		now = windowEnd
		w++
		if idx++; idx < n {
			continue
		}
		idx = 0
		if wraps++; wraps == 2 {
			remaining, elapsed, w = t.skipLaps(remaining, elapsed, w)
			now = w * t.IntervalSec
		}
	}
	return elapsed
}

// skipLaps is DownloadTime's lap skip, called when the walk wraps past the
// trace's end for the second time: a full lap lies behind it. It skips all
// but the last whole lap still to go and returns the walk's new remaining
// bits, elapsed time and window index. When a lap carries little next to
// the bits, a skip can leave more than that to go, so it repeats. A lap
// that carries nothing returns an infinite time with nothing left to go.
// It is a function of its own so that the walk's loop stays small.
func (t *Trace) skipLaps(remaining, elapsed, w float64) (float64, float64, float64) {
	lapBits := 0.0
	for _, s := range t.Samples {
		if s > 0 {
			lapBits += s
		}
	}
	if lapBits *= t.IntervalSec; !(lapBits > 0) {
		return 0, math.Inf(1), w
	}
	lapWindows := float64(len(t.Samples))
	for laps := math.Floor(remaining/lapBits) - 1; laps > 0; laps = math.Floor(remaining/lapBits) - 1 {
		remaining -= laps * lapBits
		elapsed += laps * lapWindows * t.IntervalSec
		w += laps * lapWindows
	}
	return remaining, elapsed, w
}

// Mean returns the average bandwidth over the whole trace.
func (t *Trace) Mean() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range t.Samples {
		sum += s
	}
	return sum / float64(len(t.Samples))
}

// CoV returns the coefficient of variation (stddev/mean) of the samples.
// It returns 0 for an empty or zero-mean trace.
func (t *Trace) CoV() float64 {
	m := t.Mean()
	if m == 0 {
		return 0
	}
	ss := 0.0
	for _, s := range t.Samples {
		d := s - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(t.Samples))) / m
}

// Min returns the smallest sample, or 0 for an empty trace.
func (t *Trace) Min() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	m := t.Samples[0]
	for _, s := range t.Samples[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// Max returns the largest sample, or 0 for an empty trace.
func (t *Trace) Max() float64 {
	m := 0.0
	for _, s := range t.Samples {
		if s > m {
			m = s
		}
	}
	return m
}

// Scale returns a copy of the trace with every sample multiplied by f.
// It is used to derive easier/harder variants of a trace set.
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{ID: t.ID, IntervalSec: t.IntervalSec, Samples: make([]float64, len(t.Samples))}
	for i, s := range t.Samples {
		out.Samples[i] = s * f
	}
	return out
}

// Slice returns the sub-trace covering [from, to) seconds, clamped to the
// trace bounds.
func (t *Trace) Slice(from, to float64) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if from < 0 {
		from = 0
	}
	if to > t.Duration() {
		to = t.Duration()
	}
	if to <= from {
		return nil, fmt.Errorf("trace %s: empty slice [%g, %g)", t.ID, from, to)
	}
	lo := int(from / t.IntervalSec)
	hi := int(math.Ceil(to / t.IntervalSec))
	if hi > len(t.Samples) {
		hi = len(t.Samples)
	}
	return &Trace{
		ID:          fmt.Sprintf("%s[%g:%g]", t.ID, from, to),
		IntervalSec: t.IntervalSec,
		Samples:     append([]float64(nil), t.Samples[lo:hi]...),
	}, nil
}

// Validate reports whether the trace is usable for replay: a positive
// interval, at least one sample, and no negative samples.
func (t *Trace) Validate() error {
	if t.IntervalSec <= 0 {
		return fmt.Errorf("trace %s: non-positive interval %v", t.ID, t.IntervalSec)
	}
	if len(t.Samples) == 0 {
		return errors.New("trace " + t.ID + ": no samples")
	}
	for i, s := range t.Samples {
		if s < 0 {
			return fmt.Errorf("trace %s: negative sample %v at index %d", t.ID, s, i)
		}
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("trace %s: non-finite sample at index %d", t.ID, i)
		}
	}
	return nil
}
