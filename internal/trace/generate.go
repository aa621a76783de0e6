package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator parameters mirror the two trace families used in the paper's
// evaluation (§6.1): 200 commercial-LTE drive-test traces recorded as
// per-second throughput, and 200 FCC fixed-broadband traces recorded as
// per-5-second throughput, each at least 18 minutes long.
const (
	// LTEIntervalSec is the sampling interval of LTE traces in seconds.
	LTEIntervalSec = 1.0
	// FCCIntervalSec is the sampling interval of FCC traces in seconds.
	FCCIntervalSec = 5.0
	// MinTraceDurationSec is the minimum trace length in seconds (18 minutes).
	MinTraceDurationSec = 18 * 60
	// DefaultSetSize is the number of traces in each generated set.
	//lint:allow units DefaultSetSize counts traces, not a data size
	DefaultSetSize = 200
)

// Mbps converts megabits/second to bits/second.
const Mbps = 1e6

// lteState is one regime of the Markov-modulated LTE bandwidth process.
type lteState struct {
	mean  float64 // bits/sec
	sigma float64 // lognormal shape of within-state jitter
}

// The regimes span deep fades through excellent coverage; a drive test moves
// through them with sticky transitions, producing the multi-timescale
// burstiness characteristic of cellular traces.
var lteStates = []lteState{
	{0.25 * Mbps, 0.45}, // deep fade / handover
	{0.8 * Mbps, 0.40},  // poor
	{1.8 * Mbps, 0.35},  // fair
	{3.2 * Mbps, 0.30},  // good
	{5.5 * Mbps, 0.28},  // very good
	{9.0 * Mbps, 0.25},  // excellent
}

// GenLTE deterministically generates an LTE drive-test-like trace for the
// given index. The same index always yields the same trace.
func GenLTE(index int) *Trace {
	rng := rand.New(rand.NewSource(int64(0x17e0000) + int64(index)))
	n := int(MinTraceDurationSec/LTEIntervalSec) + rng.Intn(240)
	samples := make([]float64, n)

	// Each trace has its own coverage bias so the set spans poorly- and
	// well-covered drives, like a coast-to-coast capture.
	// Coverage bias per trace: the set spans poorly- and well-covered
	// drives, with a median per-trace mean around 2 Mbps — constrained
	// relative to the 4.8 Mbps top track, as in the paper's drive tests.
	bias := 0.36 + 0.55*rng.Float64()

	state := rng.Intn(len(lteStates))
	outage := 0 // remaining outage seconds
	for i := range samples {
		// Sticky state transitions: mostly stay, sometimes drift one step,
		// rarely jump.
		switch p := rng.Float64(); {
		case p < 0.025 && state > 0:
			state--
		case p < 0.05 && state < len(lteStates)-1:
			state++
		case p < 0.056:
			state = rng.Intn(len(lteStates))
		}
		// Occasional total outages (tunnels, handover gaps).
		if outage == 0 && rng.Float64() < 0.0025 {
			outage = 1 + rng.Intn(5)
		}
		if outage > 0 {
			outage--
			samples[i] = 0
			continue
		}
		st := lteStates[state]
		jitter := math.Exp(st.sigma * rng.NormFloat64())
		bw := st.mean * bias * jitter
		if bw > 25*Mbps {
			bw = 25 * Mbps
		}
		samples[i] = bw
	}
	return &Trace{ID: fmt.Sprintf("lte-%03d", index), IntervalSec: LTEIntervalSec, Samples: samples}
}

// GenFCC deterministically generates an FCC fixed-broadband-like trace for
// the given index: per-5-second samples around a stable per-line rate with
// mild AR(1) variation and rare congestion dips.
func GenFCC(index int) *Trace {
	rng := rand.New(rand.NewSource(int64(0xfcc0000) + int64(index)))
	n := int(MinTraceDurationSec/FCCIntervalSec) + rng.Intn(48)
	samples := make([]float64, n)

	// Provisioned line rate: lognormal between roughly 1.5 and 20 Mbps.
	base := math.Exp(rng.NormFloat64()*0.55+1.6) * Mbps // median ~5 Mbps
	if base < 1.2*Mbps {
		base = 1.2 * Mbps
	}
	if base > 22*Mbps {
		base = 22 * Mbps
	}

	x := 0.0 // AR(1) deviation in log space
	dip := 0
	for i := range samples {
		x = 0.85*x + 0.10*rng.NormFloat64()
		bw := base * math.Exp(x)
		if dip == 0 && rng.Float64() < 0.01 {
			dip = 1 + rng.Intn(4)
		}
		if dip > 0 {
			dip--
			bw *= 0.25 + 0.35*rng.Float64()
		}
		samples[i] = bw
	}
	return &Trace{ID: fmt.Sprintf("fcc-%03d", index), IntervalSec: FCCIntervalSec, Samples: samples}
}

// GenLTESet generates n LTE traces (indices 0..n-1).
func GenLTESet(n int) []*Trace {
	out := make([]*Trace, n)
	for i := range out {
		out[i] = GenLTE(i)
	}
	return out
}

// GenFCCSet generates n FCC traces (indices 0..n-1).
func GenFCCSet(n int) []*Trace {
	out := make([]*Trace, n)
	for i := range out {
		out[i] = GenFCC(i)
	}
	return out
}

// Constant returns a trace with a single constant bandwidth, useful in tests
// and for the const:<mbps> trace spec.
func Constant(id string, bps, durationSec, intervalSec float64) *Trace {
	n := int(math.Ceil(durationSec / intervalSec))
	if n < 1 {
		n = 1
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = bps
	}
	return &Trace{ID: id, IntervalSec: intervalSec, Samples: s}
}

// Step returns a trace that switches between two bandwidths every `period`
// seconds, useful for exercising adaptation transients in tests.
func Step(id string, low, high, period, durationSec, intervalSec float64) *Trace {
	n := int(math.Ceil(durationSec / intervalSec))
	s := make([]float64, n)
	for i := range s {
		t := float64(i) * intervalSec
		if int(t/period)%2 == 0 {
			s[i] = high
		} else {
			s[i] = low
		}
	}
	return &Trace{ID: id, IntervalSec: intervalSec, Samples: s}
}
