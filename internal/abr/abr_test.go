package abr

import (
	"testing"

	"cava/internal/video"
)

func testVideo() *video.Video {
	return video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
}

func TestFixed(t *testing.T) {
	v := testVideo()
	a := Fixed(3)(v)
	if a.Name() != "Fixed" {
		t.Errorf("name = %q", a.Name())
	}
	if got := a.Select(State{ChunkIndex: 0}); got != 3 {
		t.Errorf("Fixed(3) selected %d", got)
	}
	if got := Fixed(99)(v).Select(State{}); got != v.NumTracks()-1 {
		t.Errorf("Fixed(99) clamps to %d, got %d", v.NumTracks()-1, got)
	}
	if got := Fixed(-1)(v).Select(State{}); got != 0 {
		t.Errorf("Fixed(-1) clamps to 0, got %d", got)
	}
}

func TestClampLevel(t *testing.T) {
	if ClampLevel(-3, 6) != 0 || ClampLevel(7, 6) != 5 || ClampLevel(2, 6) != 2 {
		t.Error("ClampLevel broken")
	}
}

func TestBBA1BufferMap(t *testing.T) {
	v := testVideo()
	b := NewBBA1(v, 10, 90)
	i := 10

	// Below the reservoir: lowest track always.
	if got := b.Select(State{ChunkIndex: i, Buffer: 5}); got != 0 {
		t.Errorf("below reservoir selected %d, want 0", got)
	}
	// At/above the cushion end: the track whose chunk fits the highest
	// allowed size (the top track's average chunk).
	high := b.Select(State{ChunkIndex: i, Buffer: 95})
	if high < 4 {
		t.Errorf("above cushion selected %d, want a top track", high)
	}
	// Monotone non-decreasing in buffer.
	prev := -1
	for buf := 0.0; buf <= 100; buf += 5 {
		l := b.Select(State{ChunkIndex: i, Buffer: buf})
		if l < prev {
			t.Fatalf("BBA-1 level decreased from %d to %d as buffer grew to %v", prev, l, buf)
		}
		prev = l
	}
}

func TestBBA1IsMyopic(t *testing.T) {
	// At the same buffer level, a large (complex) chunk gets a lower or
	// equal track than a small (simple) chunk — the myopic behaviour the
	// paper's Fig. 4 calls out.
	v := testVideo()
	b := NewBBA1(v, 10, 90)
	ref := v.Tracks[3].ChunkSizesBits
	small, large := 0, 0
	for i := 1; i < v.NumChunks(); i++ {
		if ref[i] < ref[small] {
			small = i
		}
		if ref[i] > ref[large] {
			large = i
		}
	}
	ls := b.Select(State{ChunkIndex: small, Buffer: 50})
	ll := b.Select(State{ChunkIndex: large, Buffer: 50})
	if ll > ls {
		t.Errorf("BBA-1 gave the large chunk a higher track (%d) than the small one (%d)", ll, ls)
	}
}

func TestBBA1Defaults(t *testing.T) {
	v := testVideo()
	b := NewBBA1(v, 0, 0)
	if b.ReservoirSec != 10 || b.CushionEndSec != 90 {
		t.Errorf("defaults = %v/%v", b.ReservoirSec, b.CushionEndSec)
	}
	if b.Name() != "BBA-1" {
		t.Errorf("name = %q", b.Name())
	}
}

func TestRBA(t *testing.T) {
	v := testVideo()
	r := NewRBA(v, 4)
	if r.Name() != "RBA" {
		t.Errorf("name = %q", r.Name())
	}
	// Without an estimate: lowest track.
	if got := r.Select(State{ChunkIndex: 0, Buffer: 50}); got != 0 {
		t.Errorf("no-estimate selection = %d, want 0", got)
	}
	// With a huge estimate and buffer, the top track keeps 4 chunks.
	if got := r.Select(State{ChunkIndex: 0, Buffer: 80, Est: 1e9}); got != v.NumTracks()-1 {
		t.Errorf("rich selection = %d, want top", got)
	}
	// Monotone non-decreasing in the estimate.
	prev := -1
	for est := 1e5; est < 1e8; est *= 2 {
		l := r.Select(State{ChunkIndex: 5, Buffer: 40, Est: est})
		if l < prev {
			t.Fatalf("RBA level decreased as estimate grew")
		}
		prev = l
	}
	// With exactly 4 chunks buffered, any download violates the floor
	// unless instantaneous; RBA must pick the lowest.
	if got := r.Select(State{ChunkIndex: 0, Buffer: 4 * v.ChunkDurSec, Est: 1e6}); got != 0 {
		t.Errorf("at-floor selection = %d, want 0", got)
	}
}

func TestRBADefaultMinChunks(t *testing.T) {
	if NewRBA(testVideo(), 0).MinChunks != 4 {
		t.Error("default MinChunks not 4")
	}
}

func TestMPCNames(t *testing.T) {
	v := testVideo()
	if NewMPC(v, false).Name() != "MPC" || NewMPC(v, true).Name() != "RobustMPC" {
		t.Error("MPC names wrong")
	}
}

func TestMPCNoEstimatePicksLowest(t *testing.T) {
	v := testVideo()
	if got := NewMPC(v, false).Select(State{ChunkIndex: 0, Buffer: 10}); got != 0 {
		t.Errorf("MPC without estimate selected %d", got)
	}
}

func TestMPCRichNetworkPicksTop(t *testing.T) {
	v := testVideo()
	m := NewMPC(v, false)
	got := m.Select(State{ChunkIndex: 0, Buffer: 60, Est: 1e9, PrevLevel: -1})
	if got != v.NumTracks()-1 {
		t.Errorf("MPC with huge bandwidth selected %d, want top", got)
	}
}

func TestMPCPoorNetworkLowBufferPicksBottom(t *testing.T) {
	v := testVideo()
	m := NewMPC(v, false)
	got := m.Select(State{ChunkIndex: 0, Buffer: 2, Est: 5e4, PrevLevel: -1})
	if got != 0 {
		t.Errorf("MPC near-stall selected %d, want 0", got)
	}
}

func TestMPCMonotoneInBandwidth(t *testing.T) {
	v := testVideo()
	prev := -1
	for est := 2e5; est < 2e8; est *= 2 {
		m := NewMPC(v, false)
		l := m.Select(State{ChunkIndex: 10, Buffer: 50, Est: est, PrevLevel: 2})
		if l < prev {
			t.Fatalf("MPC level decreased as bandwidth grew (est=%v: %d -> %d)", est, prev, l)
		}
		prev = l
	}
}

func TestRobustMPCMoreConservative(t *testing.T) {
	v := testVideo()
	// Feed both variants a history of large over-predictions; the robust
	// variant must discount the estimate and pick a lower-or-equal track.
	mkHistory := func(m *MPC) {
		for k := 0; k < 5; k++ {
			m.Select(State{ChunkIndex: k, Buffer: 30, Est: 4e6, LastThroughputBps: 1.5e6, PrevLevel: 2})
		}
	}
	plain, robust := NewMPC(v, false), NewMPC(v, true)
	mkHistory(plain)
	mkHistory(robust)
	st := State{ChunkIndex: 6, Buffer: 30, Est: 4e6, LastThroughputBps: 1.5e6, PrevLevel: 2}
	lp, lr := plain.Select(st), robust.Select(st)
	if lr > lp {
		t.Errorf("RobustMPC picked %d above MPC's %d despite bad prediction history", lr, lp)
	}
	if lr == lp {
		// At minimum the robust internal prediction must be discounted; the
		// track choice may coincide on coarse ladders.
		t.Logf("levels coincide (%d); acceptable on a coarse ladder", lp)
	}
}

func TestMPCHorizonShrinksAtEnd(t *testing.T) {
	v := testVideo()
	m := NewMPC(v, false)
	last := v.NumChunks() - 1
	if got := m.Select(State{ChunkIndex: last, Buffer: 50, Est: 3e6, PrevLevel: 3}); got < 0 || got >= v.NumTracks() {
		t.Errorf("end-of-video selection %d out of range", got)
	}
	// Past the end: return the previous level, clamped.
	if got := m.Select(State{ChunkIndex: v.NumChunks(), Buffer: 50, Est: 3e6, PrevLevel: 3}); got != 3 {
		t.Errorf("past-end selection %d, want 3", got)
	}
}
