package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"cava/internal/abr"
	"cava/internal/player"
	"cava/internal/scene"
	"cava/internal/trace"
	"cava/internal/video"
)

// The reference loops below are CAVA's per-decision computations as they
// ran before the plan tabled them: Eq. 5's target buffer and Eq. 3's
// window-average bitrate, summed over the video on every call. The plan
// must equal them bit for bit.

// refLiveEdge is one past the last chunk whose size is known at a decision
// for chunk i.
func refLiveEdge(v *video.Video, p Params, i int) int {
	if p.Lookahead <= 0 {
		return v.NumChunks()
	}
	return min(i+1+p.Lookahead, v.NumChunks())
}

// refTargetBuffer is Eq. 5 for a decision at chunk i.
func refTargetBuffer(v *video.Video, p Params, pr Principles, ref, i int) float64 {
	xr := p.BaseTargetBuffer
	if !pr.Proactive {
		return xr
	}
	sumAll := 0.0
	for _, s := range v.Tracks[ref].ChunkSizesBits {
		sumAll += s
	}
	refAvgSizeBits := sumAll / float64(v.NumChunks())
	wChunks := max(int(math.Round(p.OuterWindowSec/v.ChunkDurSec)), 1)
	start := i
	end := min(start+wChunks, v.NumChunks(), refLiveEdge(v, p, i))
	if end <= start {
		return xr
	}
	sum := 0.0
	for k := start; k < end; k++ {
		sum += v.ChunkSize(ref, k)
	}
	n := float64(end - start)
	dev := (sum - refAvgSizeBits*n) / v.AvgBitrateBps(ref)
	if dev > 0 {
		xr += dev
	}
	if cap := p.TargetCapFactor * p.BaseTargetBuffer; xr > cap {
		xr = cap
	}
	if p.TargetMax > 0 && xr > p.TargetMax {
		xr = p.TargetMax
	}
	return xr
}

// refWindowAvgBitrate is Eq. 3's R̄(ℓ, i).
func refWindowAvgBitrate(v *video.Video, p Params, pr Principles, level, i int) float64 {
	if !pr.NonMyopic {
		return v.ChunkBitrate(level, i)
	}
	wChunks := max(int(math.Round(p.InnerWindowSec/v.ChunkDurSec)), 1)
	end := min(i+wChunks, v.NumChunks(), refLiveEdge(v, p, i))
	sum := 0.0
	for k := i; k < end; k++ {
		sum += v.ChunkSize(level, k)
	}
	return sum / (float64(end-i) * v.ChunkDurSec)
}

// TestPlanMatchesDirectLoops checks every table entry of the plan against
// the direct per-decision loops, bit for bit, for every chunk and track:
// VoD and three live lookaheads (one with the live experiment's target
// bounds), each principle set, and two chunk durations.
func TestPlanMatchesDirectLoops(t *testing.T) {
	videos := []*video.Video{testVideo(), video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)}
	type cfg struct {
		name string
		p    Params
	}
	cfgs := []cfg{{"vod", DefaultParams()}}
	for _, la := range []int{2, 5, 20} {
		p := DefaultParams()
		p.Lookahead = la
		cfgs = append(cfgs, cfg{"live", p})
	}
	liveExp := DefaultParams()
	liveExp.Lookahead, liveExp.BaseTargetBuffer, liveExp.TargetMax = 5, 10, 14
	cfgs = append(cfgs, cfg{"live-exp", liveExp})
	principles := map[string]Principles{
		"p1":   {NonMyopic: true},
		"p12":  {NonMyopic: true, Differential: true},
		"p123": AllPrinciples,
		"none": {},
	}
	for _, v := range videos {
		for _, c := range cfgs {
			for prName, pr := range principles {
				pl := newPlan(v, c.p, pr, "x")
				if !reflect.DeepEqual(pl.cats, scene.Classify(v, pl.ref, c.p.NumClasses)) {
					t.Fatalf("%s %s/%s la=%d: categories differ", v.ID(), c.name, prName, c.p.Lookahead)
				}
				for i := 0; i < v.NumChunks(); i++ {
					if got, want := pl.target[i], refTargetBuffer(v, c.p, pr, pl.ref, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s/%s la=%d: target[%d] = %v, want %v", v.ID(), c.name, prName, c.p.Lookahead, i, got, want)
					}
					for l := 0; l < v.NumTracks(); l++ {
						got := pl.rbar[l*v.NumChunks()+i]
						if want := refWindowAvgBitrate(v, c.p, pr, l, i); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %s/%s la=%d: rbar(%d, %d) = %v, want %v", v.ID(), c.name, prName, c.p.Lookahead, l, i, got, want)
						}
					}
				}
			}
		}
	}
}

// A CAVA session's budget is the plan pointer, the PID state and the
// recorder, with no per-video state; an AutoCAVA session adds the regime
// detector's period, window, sample slice, countdown and regime.
const (
	maxSessionBytes     = 80
	maxAutoSessionBytes = 136
)

// TestSessionFootprint is the noise-free footprint gate: once a factory
// has built a video's plan, each further session is exactly one
// allocation of the session type, and every session of the factory on
// that video shares the plan. New builds an unshared plan per call.
func TestSessionFootprint(t *testing.T) {
	if size := reflect.TypeFor[CAVA]().Size(); size > maxSessionBytes {
		t.Errorf("CAVA session is %d B, budget %d B", size, maxSessionBytes)
	}
	v := testVideo()
	p := DefaultParams()
	p.InnerWindowSec = 30
	factories := map[string]abr.Factory{
		"Factory": Factory(), "p1": Variant("p1"), "p12": Variant("p12"), "p123": Variant("p123"),
		"Live(5)": Live(5), "FactoryWith": FactoryWith(p, AllPrinciples, "CAVA-w30"),
		"AutoFactory": AutoFactory(),
	}
	for name, f := range factories {
		first := f(v)
		var sink abr.Algorithm
		if allocs := testing.AllocsPerRun(100, func() { sink = f(v) }); allocs != 1 {
			t.Errorf("%s: a session allocates %v times, want 1", name, allocs)
		}
		if planOf(first) != planOf(sink) {
			t.Errorf("%s: two sessions on one video hold different plans", name)
		}
	}
	if size := reflect.TypeFor[AutoCAVA]().Size(); size > maxAutoSessionBytes {
		t.Errorf("AutoCAVA session is %d B, budget %d B", size, maxAutoSessionBytes)
	}
	if New(v).pl == New(v).pl {
		t.Error("New shares a plan; it must build its own")
	}
}

// planOf returns the plan of a core session.
func planOf(a abr.Algorithm) *plan {
	switch c := a.(type) {
	case *CAVA:
		return c.pl
	case *AutoCAVA:
		return c.pl
	}
	return nil
}

// TestFactoryMemoBounded checks the memo's bound: past memoVideos videos a
// factory still serves sessions, each on a plan of its own.
func TestFactoryMemoBounded(t *testing.T) {
	f := Factory()
	var videos []*video.Video
	for i := 0; i <= memoVideos; i++ {
		videos = append(videos, video.Generate(video.GenConfig{
			Name: "memo", Genre: video.Animation, ChunkDurSec: 2, DurationSec: 8, Seed: int64(i),
		}))
	}
	for _, v := range videos[:memoVideos] {
		if planOf(f(v)) != planOf(f(v)) {
			t.Fatal("a video within the bound is not shared")
		}
	}
	last := videos[memoVideos]
	if a, b := planOf(f(last)), planOf(f(last)); a == b || a == nil {
		t.Error("a video past the bound is memoized")
	}
	if planOf(f(videos[0])) != planOf(f(videos[0])) {
		t.Error("a memoized video lost its plan")
	}
}

// TestFactoryConcurrent runs one factory's sessions on two videos from
// many goroutines at once, as fleet shards and sim workers do (the race
// detector checks the memo and the shared tables). All sessions of a video
// end on one plan, and each session's result equals a serial one's.
func TestFactoryConcurrent(t *testing.T) {
	videos := []*video.Video{testVideo(), video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation})}
	cfg := player.DefaultConfig()
	const workers = 8
	f := Variant("p12")
	plans := make([][]*plan, len(videos))
	got := make([][]*player.Result, len(videos))
	for vi := range videos {
		plans[vi] = make([]*plan, workers)
		got[vi] = make([]*player.Result, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for vi, v := range videos {
			wg.Add(1)
			go func(w, vi int, v *video.Video) {
				defer wg.Done()
				a := f(v)
				plans[vi][w] = planOf(a)
				res, err := player.Simulate(v, trace.GenLTE(w), a, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[vi][w] = res
			}(w, vi, v)
		}
	}
	wg.Wait()
	p12 := Principles{NonMyopic: true, Differential: true}
	for vi, v := range videos {
		for w := 0; w < workers; w++ {
			if plans[vi][w] != planOf(f(v)) {
				t.Errorf("video %d worker %d: session on a plan the factory no longer serves", vi, w)
			}
			want := mustSimulate(t, v, trace.GenLTE(w), NewWith(v, DefaultParams(), p12, "CAVA-p12"), cfg)
			if !reflect.DeepEqual(got[vi][w], want) {
				t.Errorf("video %d worker %d: shared-plan session differs from a serial one", vi, w)
			}
		}
	}
}
