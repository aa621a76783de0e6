package core

import (
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/player"
	"cava/internal/trace"
)

func TestLiveEdge(t *testing.T) {
	v := testVideo()
	vod := New(v)
	if vod.pl.liveEdge(10) != v.NumChunks() {
		t.Error("VoD live edge should be the whole video")
	}
	p := DefaultParams()
	p.Lookahead = 5
	live := NewWith(v, p, AllPrinciples, "live")
	if got := live.pl.liveEdge(10); got != 16 {
		t.Errorf("liveEdge(10) with lookahead 5 = %d, want 16", got)
	}
	if got := live.pl.liveEdge(v.NumChunks() - 2); got != v.NumChunks() {
		t.Errorf("liveEdge near the end = %d, want %d", got, v.NumChunks())
	}
}

func TestLiveWindowTruncation(t *testing.T) {
	v := testVideo()
	p := DefaultParams()
	p.Lookahead = 2
	live := NewWith(v, p, AllPrinciples, "live")
	// With a 2-chunk lookahead the window average covers chunks i..i+2.
	i := 20
	want := (v.ChunkSize(3, i) + v.ChunkSize(3, i+1) + v.ChunkSize(3, i+2)) / (3 * v.ChunkDurSec)
	if got := live.windowAvgBitrate(3, i); got != want {
		t.Errorf("truncated window average = %v, want %v", got, want)
	}
}

func TestLiveOuterControllerWeakerAtShortLookahead(t *testing.T) {
	v := testVideo()
	p := DefaultParams()
	p.Lookahead = 3
	live := NewWith(v, p, AllPrinciples, "live")
	vod := New(v)
	// A 3-chunk preview sees far less of an approaching cluster than the
	// full W' window: its total target elevation must be smaller.
	var liveSum, vodSum float64
	for i := 0; i < v.NumChunks(); i++ {
		liveSum += live.TargetBuffer(i) - p.BaseTargetBuffer
		vodSum += vod.TargetBuffer(i) - p.BaseTargetBuffer
	}
	if liveSum >= vodSum {
		t.Errorf("short-lookahead preview elevation %.1f not below VoD %.1f", liveSum, vodSum)
	}
	// And the preview is exactly blind at the final chunk (no future).
	last := v.NumChunks() - 1
	if got := live.TargetBuffer(last); got < p.BaseTargetBuffer {
		t.Errorf("target at the last chunk = %v, below base", got)
	}
}

func TestLiveFactoryNames(t *testing.T) {
	v := testVideo()
	a := Live(10)(v)
	if a.Name() != "CAVA-live10" {
		t.Errorf("name = %q", a.Name())
	}
	if !strings.HasPrefix(Live(3)(v).Name(), "CAVA-live") {
		t.Error("live name prefix wrong")
	}
}

// TestLiveDegradesGracefully: live sessions must complete, and the effect
// of restricting lookahead is graceful conservatism — the inner window
// tracks the immediate chunks tightly, so Q4 quality (which needs the
// smoothing and preview) drops while rebuffering does not explode.
func TestLiveDegradesGracefully(t *testing.T) {
	v := testVideo()
	cfg := player.DefaultConfig()
	var vodQ4, liveQ4, liveReb float64
	n := 8
	for i := 0; i < n; i++ {
		tr := trace.GenLTE(i)
		rv := mustSimulate(t, v, tr, New(v), cfg)
		rl := mustSimulate(t, v, tr, Live(2)(v), cfg)
		if len(rl.Chunks) != v.NumChunks() {
			t.Fatal("live session incomplete")
		}
		vodQ4 += meanLevel(rv, v)
		liveQ4 += meanLevel(rl, v)
		liveReb += rl.TotalRebufferSec
	}
	// With a 2-chunk lookahead CAVA loses its smoothing and preview, so it
	// must not pick *higher* levels than full-knowledge CAVA on average.
	if liveQ4 > vodQ4+0.3*float64(n) {
		t.Errorf("live-2 mean level %.2f above VoD %.2f", liveQ4/float64(n), vodQ4/float64(n))
	}
	if liveReb/float64(n) > 60 {
		t.Errorf("live-2 rebuffering exploded: %.1f s/session", liveReb/float64(n))
	}
}

func meanLevel(r *player.Result, v interface{ NumChunks() int }) float64 {
	sum := 0.0
	for _, c := range r.Chunks {
		sum += float64(c.Level)
	}
	return sum / float64(len(r.Chunks))
}

func TestLiveSelectValid(t *testing.T) {
	v := testVideo()
	a := Live(3)(v)
	for i := 0; i < v.NumChunks(); i += 5 {
		st := abr.State{ChunkIndex: i, Now: float64(5 * i), Buffer: 40, Est: 2e6, PrevLevel: 2}
		if l := a.Select(st); l < 0 || l >= v.NumTracks() {
			t.Fatalf("invalid level %d at chunk %d", l, i)
		}
	}
}
