package trace

import (
	"math"
	"math/rand"
	"testing"
)

// refDownloadTime is the integration DownloadTime replaced, kept verbatim as
// the reference: it sums every sample to rule out an all-zero trace, then
// re-derives each window's index and end from the clock.
func refDownloadTime(t *Trace, start, bits float64) float64 {
	if bits <= 0 {
		return 0
	}
	if len(t.Samples) == 0 {
		return math.Inf(1)
	}
	// Guard against an all-zero trace, which would never complete.
	total := 0.0
	for _, s := range t.Samples {
		total += s
	}
	if total <= 0 {
		return math.Inf(1)
	}

	elapsed := 0.0
	remaining := bits
	now := start
	for remaining > 0 {
		idx := int(now/t.IntervalSec) % len(t.Samples)
		if idx < 0 {
			idx += len(t.Samples)
		}
		bw := t.Samples[idx]
		// Time left inside the current sample window.
		windowEnd := (math.Floor(now/t.IntervalSec) + 1) * t.IntervalSec
		slot := windowEnd - now
		if slot <= 0 {
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
	}
	return elapsed
}

// outageHeavy returns a trace at least half of whose samples are zero, in
// alternating runs of up to 10 zero and up to 5 positive windows.
func outageHeavy(rng *rand.Rand, n int, intervalSec float64) *Trace {
	s := make([]float64, 0, n)
	for len(s) < n {
		for k := 1 + rng.Intn(10); k > 0 && len(s) < n; k-- {
			s = append(s, 0)
		}
		for k := 1 + rng.Intn(5); k > 0 && len(s) < n; k-- {
			s = append(s, 1e5+rng.Float64()*8e6)
		}
	}
	return &Trace{ID: "outage", IntervalSec: intervalSec, Samples: s}
}

// TestDownloadTimeMatchesReference pins DownloadTime bit for bit against
// refDownloadTime on every kind of trace the repository builds, for
// non-negative starts over three laps (exact window boundaries included)
// and sizes from one bit up to three laps' volume.
func TestDownloadTimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	traces := []*Trace{GenLTE(0), GenLTE(7), GenLTE(123), GenFCC(0), GenFCC(5), GenFCC(77)}
	for _, iv := range []float64{1, 2, 5, 0.5, 0.25} {
		traces = append(traces,
			Constant("c", 2.5e6, 120, iv),
			Step("s", 5e5, 4e6, 7, 120, iv))
	}
	traces = append(traces,
		outageHeavy(rng, 600, 1), outageHeavy(rng, 240, 0.25),
		&Trace{ID: "one", IntervalSec: 1, Samples: []float64{3e6}},
		&Trace{ID: "one-5s", IntervalSec: 5, Samples: []float64{7e5}},
		&Trace{ID: "zero", IntervalSec: 1, Samples: make([]float64, 50)},
		&Trace{ID: "zero-one", IntervalSec: 2, Samples: []float64{0}})

	const perTrace = 5000
	pairs := 0
	for _, tr := range traces {
		zeros := 0
		for _, s := range tr.Samples {
			if s == 0 {
				zeros++
			}
		}
		if tr.ID == "outage" && 2*zeros < len(tr.Samples) {
			t.Fatalf("outage trace has %d zeros in %d samples, want at least half", zeros, len(tr.Samples))
		}
		maxBits := 3 * tr.Mean() * tr.Duration()
		if maxBits <= 1 {
			maxBits = 1e7 // all-zero trace: any size must read +Inf
		}
		for i := 0; i < perTrace; i++ {
			start := rng.Float64() * 3 * tr.Duration()
			switch i % 4 {
			case 0: // exact window boundary
				start = float64(rng.Intn(3*len(tr.Samples))) * tr.IntervalSec
			case 1:
				start = 0
			}
			// Log-uniform in [1, maxBits], with both ends exactly.
			bits := math.Exp(rng.Float64() * math.Log(maxBits))
			switch i % 7 {
			case 0:
				bits = 1
			case 1:
				bits = maxBits
			}
			got, want := tr.DownloadTime(start, bits), refDownloadTime(tr, start, bits)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (interval %g s, %d samples): DownloadTime(%v, %v) = %v, reference %v",
					tr.ID, tr.IntervalSec, len(tr.Samples), start, bits, got, want)
			}
			pairs++
		}
	}
	if pairs < 100000 {
		t.Fatalf("compared %d pairs, want at least 100000", pairs)
	}
}

// fuzzIntervals are sampling intervals at which the reference, which
// re-derives each window from the clock, walks the windows DownloadTime
// walks.
var fuzzIntervals = []float64{1, 2, 5, 0.5, 0.25}

// fuzzRates are the samples a fuzz input's bytes pick from: an outage, a
// rate so small that a transfer spans astronomically many laps, and LTE-
// and FCC-like rates.
var fuzzRates = []float64{0, 1e-300, 1e-3, 5e4, 1e5, 7e5, 1e6, 2.5e6, 3e6, 8e6, 2e7}

// FuzzDownloadTime checks DownloadTime on traces of up to 16 samples, each
// byte of raw picking one rate. Against refDownloadTime, whenever the
// reference's walk is short: bit for bit when the transfer fits in one
// lap, to a relative 1e-9 beyond (skipping laps regroups the sums). On
// every input: never negative, monotone in bits, and +Inf only when a lap
// carries nothing or the time exceeds the float64 range.
func FuzzDownloadTime(f *testing.F) {
	f.Add([]byte{6}, uint8(0), 0.0, 4e6)                   // one lap of one sample, wrapped four times
	f.Add([]byte{6, 0, 8, 3}, uint8(1), 3.5, 5e7)          // an outage, a few laps
	f.Add([]byte{9, 1, 0, 4, 4, 10}, uint8(3), 12.25, 3e9) // hundreds of laps, past the reference
	f.Add([]byte{1}, uint8(0), 0.0, 4e5)                   // 1e-300 b/s: about 4e305 s
	f.Add([]byte{1, 1}, uint8(4), 0.3, 1e300)              // past the float64 range
	f.Add([]byte{0, 0}, uint8(2), 1.0, 1e6)                // a lap carries nothing
	f.Add([]byte{5, 7}, uint8(0), 2.0, 0.0)                // nothing to send
	f.Fuzz(func(t *testing.T, raw []byte, iv uint8, start, bits float64) {
		if len(raw) == 0 || len(raw) > 16 || math.IsNaN(bits) || math.IsInf(bits, 0) {
			t.Skip()
		}
		tr := &Trace{ID: "fuzz", IntervalSec: fuzzIntervals[int(iv)%len(fuzzIntervals)]}
		for _, b := range raw {
			tr.Samples = append(tr.Samples, fuzzRates[int(b)%len(fuzzRates)])
		}
		// The reference walks from a non-negative start only.
		if math.IsNaN(start) || math.IsInf(start, 0) {
			start = 0
		}
		start = math.Mod(math.Abs(start), 4*tr.Duration())

		got := tr.DownloadTime(start, bits)
		if bits <= 0 {
			if got != 0 {
				t.Fatalf("DownloadTime(%v, %v) = %v, want 0", start, bits, got)
			}
			return
		}
		if !(got >= 0) {
			t.Fatalf("DownloadTime(%v, %v) = %v, want a time ≥ 0", start, bits, got)
		}
		lap := 0.0
		for _, s := range tr.Samples {
			lap += s
		}
		lap *= tr.IntervalSec
		laps := bits / lap // +Inf when a lap carries nothing
		// span is about the transfer's time, +Inf past the float64 range.
		if span := laps * tr.Duration(); math.IsInf(got, 1) && span < 1e307 || !math.IsInf(got, 1) && math.IsInf(span, 1) {
			t.Fatalf("DownloadTime(%v, %v) = %v over %v laps of %v s", start, bits, got, laps, tr.Duration())
		}
		if more := bits * (1 + 1.0/1024); tr.DownloadTime(start, more) < got {
			t.Fatalf("DownloadTime(%v, %v) = %v, but %v bits take %v", start, bits, got, more, tr.DownloadTime(start, more))
		}
		if laps > 64 {
			return // the reference would walk too many windows
		}
		want := refDownloadTime(tr, start, bits)
		switch {
		case want <= tr.Duration():
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DownloadTime(%v, %v) = %v, reference %v", start, bits, got, want)
			}
		case math.Abs(got-want) > 1e-9*want:
			t.Fatalf("DownloadTime(%v, %v) = %v, reference %v (relative error %.3g)",
				start, bits, got, want, math.Abs(got-want)/want)
		}
	})
}
