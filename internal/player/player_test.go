package player

import (
	"math"
	"testing"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

func testVideo() *video.Video {
	return video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation})
}

func fixedAlgo(v *video.Video, level int) abr.Algorithm { return abr.Fixed(level)(v) }

func TestAmpleBandwidthNoRebuffer(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("fast", 100e6, 1200, 1)
	res, err := Simulate(v, tr, fixedAlgo(v, 5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRebufferSec != 0 {
		t.Errorf("rebuffered %v s on a 100 Mbps link", res.TotalRebufferSec)
	}
	if len(res.Chunks) != v.NumChunks() {
		t.Errorf("downloaded %d chunks, want %d", len(res.Chunks), v.NumChunks())
	}
	// Data accounting: total equals the sum of top-track chunk sizes.
	want := 0.0
	for _, s := range v.Tracks[5].ChunkSizesBits {
		want += s
	}
	if math.Abs(res.TotalBits-want) > 1 {
		t.Errorf("TotalBits = %v, want %v", res.TotalBits, want)
	}
}

func TestStarvedLinkRebuffers(t *testing.T) {
	v := testVideo()
	// 50 kbps cannot sustain even the lowest track (100 kbps).
	tr := trace.Constant("slow", 5e4, 4000, 1)
	res, err := Simulate(v, tr, fixedAlgo(v, 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRebufferSec <= 0 {
		t.Error("no rebuffering on a starved link")
	}
}

func TestStartupDelay(t *testing.T) {
	v := testVideo()
	// 1 Mbps link, lowest track (100 kbps avg, 5 s chunks -> ~0.5 s per
	// chunk): two chunks give 10 s of video, so startup ends after two
	// downloads, at roughly 1 s.
	tr := trace.Constant("c", 1e6, 1200, 1)
	res, err := Simulate(v, tr, fixedAlgo(v, 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.StartupDelaySec <= 0 || res.StartupDelaySec > 5 {
		t.Errorf("startup delay = %v, want ~1s", res.StartupDelaySec)
	}
	// Startup latency config is honored: no playback before 10 s of video
	// is buffered, so no stall can occur during the first two downloads.
	if res.Chunks[0].RebufferSec != 0 || res.Chunks[1].RebufferSec != 0 {
		t.Error("stall during startup phase")
	}
}

func TestMaxBufferRespected(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("fast", 50e6, 1200, 1)
	cfg := DefaultConfig()
	res, err := Simulate(v, tr, fixedAlgo(v, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Chunks {
		if c.BufferAfter > cfg.MaxBufferSec+1e-6 {
			t.Fatalf("buffer %v exceeds max %v at chunk %d", c.BufferAfter, cfg.MaxBufferSec, c.Index)
		}
	}
	// On a fast link the session must be paced by playback: the client
	// waits before downloads once the buffer is full.
	waited := 0.0
	for _, c := range res.Chunks {
		waited += c.WaitSec
	}
	if waited <= 0 {
		t.Error("client never waited despite a 50 Mbps link and a 100 s buffer cap")
	}
}

func TestSessionDeterministic(t *testing.T) {
	v := testVideo()
	tr := trace.GenLTE(9)
	a, _ := Simulate(v, tr, fixedAlgo(v, 2), DefaultConfig())
	b, _ := Simulate(v, tr, fixedAlgo(v, 2), DefaultConfig())
	if a.SessionSec != b.SessionSec || a.TotalRebufferSec != b.TotalRebufferSec {
		t.Error("sessions with identical inputs diverge")
	}
}

func TestValidatesInputs(t *testing.T) {
	v := testVideo()
	badTrace := &trace.Trace{ID: "bad", IntervalSec: 0}
	if _, err := Simulate(v, badTrace, fixedAlgo(v, 0), DefaultConfig()); err == nil {
		t.Error("bad trace accepted")
	}
	badVideo := *v
	badVideo.Tracks = nil
	tr := trace.Constant("c", 1e6, 1200, 1)
	if _, err := Simulate(&badVideo, tr, fixedAlgo(v, 0), DefaultConfig()); err == nil {
		t.Error("bad video accepted")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("c", 5e6, 1200, 1)
	res, err := Simulate(v, tr, fixedAlgo(v, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartupDelaySec <= 0 {
		t.Error("zero-value config broke startup accounting")
	}
}

// delayingAlgo pauses a fixed time before the 5th chunk.
type delayingAlgo struct {
	delayed bool
}

func (d *delayingAlgo) Name() string         { return "delaying" }
func (d *delayingAlgo) Select(abr.State) int { return 0 }
func (d *delayingAlgo) Delay(st abr.State) float64 {
	if st.ChunkIndex == 5 && !d.delayed {
		d.delayed = true
		return 7
	}
	return 0
}

func TestDelayerHonored(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("c", 10e6, 1200, 1)
	res, err := Simulate(v, tr, &delayingAlgo{}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks[5].WaitSec < 7 {
		t.Errorf("chunk 5 wait = %v, want >= 7", res.Chunks[5].WaitSec)
	}
	// Time monotonicity across the pause.
	if res.Chunks[5].StartTime < res.Chunks[4].StartTime+7 {
		t.Error("pause did not advance the clock")
	}
}

func TestThroughputRecorded(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("c", 2e6, 1200, 1)
	res, _ := Simulate(v, tr, fixedAlgo(v, 3), DefaultConfig())
	for _, c := range res.Chunks {
		if c.DownloadSec > 0 && math.Abs(c.ThroughputBps-2e6) > 1 {
			t.Fatalf("chunk %d throughput %v, want 2e6", c.Index, c.ThroughputBps)
		}
	}
}

func TestCustomPredictorUsed(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("c", 2e6, 1200, 1)
	cfg := DefaultConfig()
	cfg.Predictor = bandwidth.NewNoisyOracle(tr, 0, 1)
	// An estimating algorithm that records what it sees.
	rec := &estRecorder{}
	if _, err := Simulate(v, tr, rec, cfg); err != nil {
		t.Fatal(err)
	}
	// The oracle knows the bandwidth before the first download; the
	// harmonic-mean default would report 0 there.
	if rec.firstEst != 2e6 {
		t.Errorf("first estimate = %v, want 2e6 from the oracle", rec.firstEst)
	}
}

type estRecorder struct {
	firstEst float64
	seen     bool
}

func (e *estRecorder) Name() string { return "rec" }
func (e *estRecorder) Select(st abr.State) int {
	if !e.seen {
		e.firstEst = st.Est
		e.seen = true
	}
	return 0
}

func TestBufferNeverNegative(t *testing.T) {
	v := testVideo()
	for i := 0; i < 10; i++ {
		res, _ := Simulate(v, trace.GenLTE(i), fixedAlgo(v, 5), DefaultConfig())
		for _, c := range res.Chunks {
			if c.BufferBefore < -1e-9 || c.BufferAfter < -1e-9 {
				t.Fatalf("negative buffer at chunk %d of trace %d", c.Index, i)
			}
		}
	}
}

func TestLevelsHelper(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("c", 5e6, 1200, 1)
	res, _ := Simulate(v, tr, fixedAlgo(v, 2), DefaultConfig())
	for _, l := range res.Levels() {
		if l != 2 {
			t.Fatalf("Levels() reported %d, want 2", l)
		}
	}
}

func TestSimulateErrorsOnBadInput(t *testing.T) {
	// Regression: invalid inputs must surface as returned errors, not
	// panics (the former MustSimulate crashed the process here).
	v := testVideo()
	if _, err := Simulate(v, &trace.Trace{ID: "bad", IntervalSec: 0}, fixedAlgo(v, 0), DefaultConfig()); err == nil {
		t.Error("Simulate accepted a trace with a zero interval")
	}
	if _, err := Simulate(&video.Video{}, trace.Constant("c", 5e6, 1200, 1), fixedAlgo(v, 0), DefaultConfig()); err == nil {
		t.Error("Simulate accepted an empty video")
	}
}

// oscillator alternates between two track levels every chunk, so consecutive
// downloads always land on different tracks — the strongest possible probe
// for PrevLevel bookkeeping.
type oscillator struct{ n int }

func (o *oscillator) Name() string { return "Oscillator" }
func (o *oscillator) Select(abr.State) int {
	o.n++
	return o.n % 2
}

// TestDownloadEventPrevLevelChain is the regression test for recording the
// download trace event after prevLevel had already advanced to the current
// chunk's level: every download event carried PrevLevel == Level, destroying
// the track-switch information. The events must chain instead — the first
// download sees -1, every later one sees the previous download's Level.
func TestDownloadEventPrevLevelChain(t *testing.T) {
	v := testVideo()
	ring := telemetry.NewRing(telemetry.DefaultRingCapacity)
	cfg := DefaultConfig()
	cfg.Recorder = ring
	if _, err := Simulate(v, trace.Constant("c", 10e6, 1200, 1), &oscillator{}, cfg); err != nil {
		t.Fatal(err)
	}
	prev, downloads, switches := -1, 0, 0
	for _, ev := range ring.Events() {
		if ev.Kind != telemetry.KindDownload {
			continue
		}
		if ev.PrevLevel != prev {
			t.Fatalf("download %d: PrevLevel = %d, want %d (the previous download's Level)",
				downloads, ev.PrevLevel, prev)
		}
		if ev.PrevLevel != ev.Level {
			switches++
		}
		prev = ev.Level
		downloads++
	}
	if downloads != v.NumChunks() {
		t.Fatalf("recorded %d download events, want %d", downloads, v.NumChunks())
	}
	// The oscillator switches track on every chunk; if no event shows a
	// switch, PrevLevel is being stamped from the current level.
	if switches != downloads {
		t.Fatalf("only %d/%d download events show a track switch under an oscillating algorithm",
			switches, downloads)
	}
}
