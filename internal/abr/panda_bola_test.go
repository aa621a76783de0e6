package abr

import (
	"math"
	"testing"

	"cava/internal/quality"
	"cava/internal/video"
)

func pandaPair(v *video.Video) (*PANDACQ, *PANDACQ) {
	qt := quality.NewTable(v, quality.PSNR)
	return NewPANDACQ(v, qt, MaxSum), NewPANDACQ(v, qt, MaxMin)
}

func TestPANDANames(t *testing.T) {
	s, m := pandaPair(testVideo())
	if s.Name() != "PANDA/CQ max-sum" || m.Name() != "PANDA/CQ max-min" {
		t.Errorf("names: %q, %q", s.Name(), m.Name())
	}
}

func TestPANDANoEstimate(t *testing.T) {
	s, _ := pandaPair(testVideo())
	if got := s.Select(State{ChunkIndex: 0, Buffer: 20}); got != 0 {
		t.Errorf("selection without estimate = %d, want 0", got)
	}
}

func TestPANDARespectsBudget(t *testing.T) {
	v := testVideo()
	_, m := pandaPair(v)
	// With a modest estimate the window budget forbids the top track for
	// every chunk even with a huge buffer.
	st := State{ChunkIndex: 10, Buffer: 90, Est: 1e6, PrevLevel: 2}
	l := m.Select(st)
	top := v.NumTracks() - 1
	if l == top {
		t.Errorf("max-min chose the top track with a 1 Mbps budget")
	}
}

func TestPANDAMonotoneInBandwidth(t *testing.T) {
	v := testVideo()
	prev := -1
	for est := 2e5; est < 1e8; est *= 2 {
		_, m := pandaPair(v)
		l := m.Select(State{ChunkIndex: 10, Buffer: 60, Est: est, PrevLevel: 2})
		if l < prev {
			t.Fatalf("PANDA level decreased as bandwidth grew")
		}
		prev = l
	}
}

// TestPANDAMaxMinFavorsComplexChunk: when the decision chunk is the worst-
// quality (complex) one in the window, max-min lifts it to a higher track
// than max-sum gives it, at the same bandwidth.
func TestPANDAMaxMinFavorsComplexChunk(t *testing.T) {
	v := testVideo()
	ref := v.Tracks[3].ChunkSizesBits
	// Find a clearly-large chunk (complex scene) away from the ends.
	large := 5
	for i := 5; i < v.NumChunks()-10; i++ {
		if ref[i] > ref[large] {
			large = i
		}
	}
	sum, min := pandaPair(v)
	st := State{ChunkIndex: large, Buffer: 60, Est: 2.5e6, PrevLevel: 2}
	ls, lm := sum.Select(st), min.Select(st)
	if lm < ls {
		t.Errorf("max-min gave the complex chunk %d, below max-sum's %d", lm, ls)
	}
}

// TestPANDAFallsBackWhenInfeasible: at a tiny estimate even the cheapest
// window overruns the data budget, so no sequence is feasible and both
// objectives fall back to track 0, whatever the previous track.
func TestPANDAFallsBackWhenInfeasible(t *testing.T) {
	v := testVideo()
	for _, st := range []State{
		{ChunkIndex: 0, Buffer: 0, Est: 3e4, PrevLevel: -1},
		{ChunkIndex: 40, Buffer: 30, Est: 3e4, PrevLevel: 3},
	} {
		cheapest := 0.0
		for i := st.ChunkIndex; i < st.ChunkIndex+pandaHorizon; i++ {
			smallest := math.Inf(1)
			for l := 0; l < v.NumTracks(); l++ {
				smallest = min(smallest, v.ChunkSize(l, i))
			}
			cheapest += smallest
		}
		if budget := st.Est * pandaHorizon * v.ChunkDurSec; cheapest <= budget {
			t.Fatalf("chunk %d: the cheapest window (%.0f bits) fits the %.0f-bit budget", st.ChunkIndex, cheapest, budget)
		}
		s, m := pandaPair(v)
		for _, p := range []*PANDACQ{s, m} {
			if got := p.Select(st); got != 0 {
				t.Errorf("%s at chunk %d: infeasible fallback selected %d, want 0", p.Name(), st.ChunkIndex, got)
			}
		}
	}
}

func TestBOLAVariantNames(t *testing.T) {
	v := testVideo()
	cases := map[string]Algorithm{
		"BOLA-E (peak)": NewBOLAE(v, BOLAPeak, true),
		"BOLA-E (avg)":  NewBOLAE(v, BOLAAvg, true),
		"BOLA-E (seg)":  NewBOLAE(v, BOLASeg, true),
		"BOLA (seg)":    NewBOLAE(v, BOLASeg, false),
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("name = %q, want %q", a.Name(), want)
		}
	}
}

func TestBOLABufferDrivesLevel(t *testing.T) {
	v := testVideo()
	b := NewBOLAE(v, BOLAAvg, false)
	lo := b.Select(State{ChunkIndex: 10, Buffer: 3, PrevLevel: 0})
	hi := b.Select(State{ChunkIndex: 10, Buffer: 55, PrevLevel: 0})
	if hi <= lo && hi != v.NumTracks()-1 {
		t.Errorf("BOLA level did not grow with buffer: %d -> %d", lo, hi)
	}
	if lo != 0 {
		t.Errorf("BOLA at near-empty buffer selected %d, want 0", lo)
	}
}

func TestBOLAPeakMoreConservativeThanAvg(t *testing.T) {
	v := testVideo()
	// The peak variant treats every chunk as track-peak sized, so at any
	// buffer level its selection is ≤ the avg variant's (§6.8).
	for _, buf := range []float64{10, 25, 40, 55} {
		p := NewBOLAE(v, BOLAPeak, false).Select(State{ChunkIndex: 10, Buffer: buf})
		a := NewBOLAE(v, BOLAAvg, false).Select(State{ChunkIndex: 10, Buffer: buf})
		if p > a {
			t.Errorf("buffer %v: peak variant picked %d above avg variant's %d", buf, p, a)
		}
	}
}

func TestBOLASegReactsToChunkSize(t *testing.T) {
	v := testVideo()
	ref := v.Tracks[3].ChunkSizesBits
	small, large := 10, 10
	for i := 10; i < v.NumChunks()-10; i++ {
		if ref[i] < ref[small] {
			small = i
		}
		if ref[i] > ref[large] {
			large = i
		}
	}
	b := NewBOLAE(v, BOLASeg, false)
	ls := b.Select(State{ChunkIndex: small, Buffer: 35})
	bl := NewBOLAE(v, BOLASeg, false)
	ll := bl.Select(State{ChunkIndex: large, Buffer: 35})
	if ll > ls {
		t.Errorf("seg variant gave the large chunk %d above the small chunk's %d", ll, ls)
	}
}

func TestBOLADelayWhenBufferAboveCeiling(t *testing.T) {
	v := testVideo()
	b := NewBOLAE(v, BOLAAvg, false)
	if d := b.Delay(State{ChunkIndex: 10, Buffer: 5}); d != 0 {
		t.Errorf("low-buffer delay = %v, want 0", d)
	}
	if d := b.Delay(State{ChunkIndex: 10, Buffer: 99}); d <= 0 {
		t.Error("BOLA should pause with a near-full buffer")
	}
}

func TestBOLAEPlaceholderAbsorbsDelay(t *testing.T) {
	v := testVideo()
	b := NewBOLAE(v, BOLAAvg, true)
	b.placeholder = 30
	d1 := b.Delay(State{ChunkIndex: 10, Buffer: 50})
	// The placeholder should be drained before a real pause is requested.
	if b.placeholder >= 30 {
		t.Error("placeholder not drained by Delay")
	}
	plain := NewBOLAE(v, BOLAAvg, false)
	d2 := plain.Delay(State{ChunkIndex: 10, Buffer: 80})
	if d1 > d2 {
		t.Errorf("enhanced delay %v exceeds plain delay %v at lower buffer", d1, d2)
	}
}

func TestBOLAEInsufficientBufferRule(t *testing.T) {
	v := testVideo()
	b := NewBOLAE(v, BOLAAvg, true)
	// Large placeholder, tiny real buffer: IBR must cap the level at what
	// half the estimate sustains.
	b.placeholder = 50
	b.fastStarted = true
	got := b.Select(State{ChunkIndex: 10, Buffer: 2, Est: 1e6, PrevLevel: 0})
	capLevel := b.throughputLevel(0.5e6, 10)
	if got > capLevel {
		t.Errorf("IBR violated: selected %d above cap %d", got, capLevel)
	}
}

func TestBOLAEOscillationGuard(t *testing.T) {
	v := testVideo()
	b := NewBOLAE(v, BOLAAvg, true)
	b.fastStarted = true
	// High buffer pushes the utility toward the top track, but a modest
	// estimate should cap upward switches near the sustainable level.
	got := b.Select(State{ChunkIndex: 10, Buffer: 55, Est: 1.2e6, PrevLevel: 2})
	if got > 3 {
		t.Errorf("upswitch to %d despite 1.2 Mbps estimate", got)
	}
	if got < 2 {
		t.Errorf("oscillation guard forced a downswitch to %d", got)
	}
}

func TestBOLALevelsAlwaysValid(t *testing.T) {
	v := testVideo()
	for _, variant := range []BOLAVariant{BOLAPeak, BOLAAvg, BOLASeg} {
		for _, enhanced := range []bool{false, true} {
			b := NewBOLAE(v, variant, enhanced)
			for i := 0; i < v.NumChunks(); i += 7 {
				st := State{ChunkIndex: i, Buffer: float64(i % 100), Est: 2e6, PrevLevel: i % 6}
				if l := b.Select(st); l < 0 || l >= v.NumTracks() {
					t.Fatalf("%s selected invalid level %d", b.Name(), l)
				}
			}
		}
	}
}
