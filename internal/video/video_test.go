package video

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDatasetComposition(t *testing.T) {
	ds := Dataset()
	if len(ds) != 16 {
		t.Fatalf("dataset has %d videos, want 16", len(ds))
	}
	ids := make(map[string]bool)
	var ffmpeg, youtube, h264, h265 int
	for _, v := range ds {
		if ids[v.ID()] {
			t.Errorf("duplicate video ID %s", v.ID())
		}
		ids[v.ID()] = true
		switch v.Source {
		case FFmpeg:
			ffmpeg++
			if v.ChunkDurSec != 2 {
				t.Errorf("%s: FFmpeg chunk duration %v, want 2", v.ID(), v.ChunkDurSec)
			}
		case YouTube:
			youtube++
			if v.ChunkDurSec != 5 {
				t.Errorf("%s: YouTube chunk duration %v, want 5", v.ID(), v.ChunkDurSec)
			}
			if v.Codec != H264 {
				t.Errorf("%s: YouTube encode must be H.264", v.ID())
			}
		}
		switch v.Codec {
		case H264:
			h264++
		case H265:
			h265++
		}
	}
	if ffmpeg != 8 || youtube != 8 {
		t.Errorf("source split %d/%d, want 8/8", ffmpeg, youtube)
	}
	if h265 != 4 {
		t.Errorf("%d H.265 encodes, want 4", h265)
	}
}

func TestDatasetValid(t *testing.T) {
	for _, v := range Dataset() {
		if err := v.Validate(); err != nil {
			t.Errorf("%s invalid: %v", v.ID(), err)
		}
	}
}

func TestSixTrackLadder(t *testing.T) {
	v := Dataset()[0]
	if v.NumTracks() != 6 {
		t.Fatalf("%d tracks, want 6", v.NumTracks())
	}
	wantRes := []string{"144p", "240p", "360p", "480p", "720p", "1080p"}
	for i, tr := range v.Tracks {
		if tr.Res.Name != wantRes[i] {
			t.Errorf("track %d resolution %s, want %s", i, tr.Res.Name, wantRes[i])
		}
		if tr.ID != i {
			t.Errorf("track %d has ID %d", i, tr.ID)
		}
	}
}

func TestDurationAroundTenMinutes(t *testing.T) {
	for _, v := range Dataset() {
		if d := v.Duration(); math.Abs(d-600) > 5 {
			t.Errorf("%s duration %v, want ~600", v.ID(), d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := FFmpegVideo(OpenTitles[0], H264)
	b := FFmpegVideo(OpenTitles[0], H264)
	for li := range a.Tracks {
		for ci := range a.Tracks[li].ChunkSizesBits {
			if a.Tracks[li].ChunkSizesBits[ci] != b.Tracks[li].ChunkSizesBits[ci] {
				t.Fatalf("chunk sizes differ at track %d chunk %d", li, ci)
			}
		}
	}
}

func TestDifferentTitlesDiffer(t *testing.T) {
	a := FFmpegVideo(OpenTitles[0], H264)
	b := FFmpegVideo(OpenTitles[1], H264)
	same := 0
	for ci := range a.Tracks[3].ChunkSizesBits {
		if a.Tracks[3].ChunkSizesBits[ci] == b.Tracks[3].ChunkSizesBits[ci] {
			same++
		}
	}
	if same > a.NumChunks()/10 {
		t.Errorf("%d identical chunk sizes between distinct titles", same)
	}
}

// TestBitrateVariabilityBands checks §2's reported statistics: CoV between
// 0.3 and 0.6 for the four upper tracks (looser lower bound for the calmest
// titles), reduced variability on the two lowest tracks, and peak/average
// ratios within 1.1–2.4.
func TestBitrateVariabilityBands(t *testing.T) {
	for _, v := range Dataset() {
		for li, tr := range v.Tracks {
			cov := tr.CoV()
			p2a := tr.PeakToAvg()
			if li >= 2 {
				if cov < 0.25 || cov > 0.75 {
					t.Errorf("%s track %d CoV %.2f outside [0.25,0.75]", v.ID(), li, cov)
				}
				if p2a < 1.3 || p2a > 2.5 {
					t.Errorf("%s track %d peak/avg %.2f outside [1.3,2.5]", v.ID(), li, p2a)
				}
			} else {
				upper := v.Tracks[3].CoV()
				if cov >= upper {
					t.Errorf("%s low track %d CoV %.2f not below track 3's %.2f", v.ID(), li, cov, upper)
				}
				if p2a < 1.05 || p2a > 2.3 {
					t.Errorf("%s low track %d peak/avg %.2f outside [1.05,2.3]", v.ID(), li, p2a)
				}
			}
		}
	}
}

func TestAverageBitrateNearTarget(t *testing.T) {
	v := FFmpegVideo(OpenTitles[0], H264)
	for li, tr := range v.Tracks {
		if rel := math.Abs(tr.AvgBitrateBps-tr.DeclaredBitrateBps) / tr.DeclaredBitrateBps; rel > 0.02 {
			t.Errorf("track %d achieved avg %.0f deviates %.1f%% from target %.0f",
				li, tr.AvgBitrateBps, 100*rel, tr.DeclaredBitrateBps)
		}
	}
}

func TestH265LowerBitrate(t *testing.T) {
	h4 := FFmpegVideo(OpenTitles[0], H264)
	h5 := FFmpegVideo(OpenTitles[0], H265)
	for li := range h4.Tracks {
		r := h5.Tracks[li].AvgBitrateBps / h4.Tracks[li].AvgBitrateBps
		if math.Abs(r-h265Efficiency) > 0.05 {
			t.Errorf("track %d H.265/H.264 bitrate ratio %.3f, want ~%.2f", li, r, h265Efficiency)
		}
	}
}

func TestCap4xMoreVariable(t *testing.T) {
	v2 := FFmpegVideo(Title{"ED", SciFi}, H264)
	v4 := Cap4xED()
	if v4.Cap != 4 {
		t.Fatalf("Cap4xED cap = %v", v4.Cap)
	}
	// The 4×-capped encode must have a strictly higher peak/avg on the
	// upper tracks: the 2× cap binds for the most complex scenes.
	if p2, p4 := v2.Tracks[4].PeakToAvg(), v4.Tracks[4].PeakToAvg(); p4 <= p2 {
		t.Errorf("4x peak/avg %.2f not above 2x %.2f", p4, p2)
	}
}

func TestCapBindsOnComplexScenes(t *testing.T) {
	v := FFmpegVideo(Title{"ED", SciFi}, H264)
	tr := v.Tracks[3]
	overCap := 0
	for _, s := range tr.ChunkSizesBits {
		if s/v.ChunkDurSec > 2.3*tr.AvgBitrateBps {
			overCap++
		}
	}
	// Renormalization may push a few chunks slightly above the cap, but
	// not far above it.
	if overCap > 0 {
		t.Errorf("%d chunks exceed 2.3x the average under a 2x cap", overCap)
	}
}

func TestComplexityDrivesSize(t *testing.T) {
	v := YouTubeVideo(Title{"ED", SciFi})
	tr := v.Tracks[3]
	// Correlation between complexity and chunk size must be strongly
	// positive: that is the defining property of VBR (§3.1.1).
	var mc, ms float64
	n := float64(v.NumChunks())
	for i := 0; i < v.NumChunks(); i++ {
		mc += v.Complexity[i]
		ms += tr.ChunkSizesBits[i]
	}
	mc /= n
	ms /= n
	var num, vc, vs float64
	for i := 0; i < v.NumChunks(); i++ {
		dc, ds := v.Complexity[i]-mc, tr.ChunkSizesBits[i]-ms
		num += dc * ds
		vc += dc * dc
		vs += ds * ds
	}
	if corr := num / math.Sqrt(vc*vs); corr < 0.85 {
		t.Errorf("complexity-size correlation %.2f, want > 0.85", corr)
	}
}

func TestValidateRejectsBrokenVideos(t *testing.T) {
	good := FFmpegVideo(OpenTitles[0], H264)

	noTracks := *good
	noTracks.Tracks = nil
	if noTracks.Validate() == nil {
		t.Error("video without tracks validated")
	}

	for _, durSec := range []float64{0, -2, math.NaN(), math.Inf(1)} {
		badDur := *good
		badDur.ChunkDurSec = durSec
		if badDur.Validate() == nil {
			t.Errorf("chunk duration %v validated", durSec)
		}
	}

	mismatched := *good
	mismatched.Tracks = append([]Track(nil), good.Tracks...)
	mismatched.Tracks[1].ChunkSizesBits = mismatched.Tracks[1].ChunkSizesBits[:10]
	if mismatched.Validate() == nil {
		t.Error("mismatched chunk counts validated")
	}

	unordered := *good
	unordered.Tracks = append([]Track(nil), good.Tracks...)
	unordered.Tracks[0], unordered.Tracks[1] = unordered.Tracks[1], unordered.Tracks[0]
	if unordered.Validate() == nil {
		t.Error("non-ascending bitrates validated")
	}

	badCx := *good
	badCx.Complexity = append([]float64(nil), good.Complexity...)
	badCx.Complexity[0] = 1.5
	if badCx.Validate() == nil {
		t.Error("out-of-range complexity validated")
	}
}

func TestByID(t *testing.T) {
	v := ByID("ED-ffmpeg-h264")
	if v == nil {
		t.Fatal("ByID failed for a dataset video")
	}
	if v.Name != "ED" || v.Codec != H264 || v.Source != FFmpeg {
		t.Errorf("ByID returned wrong video: %s", v.ID())
	}
	if ByID("nope") != nil {
		t.Error("ByID returned a video for an unknown ID")
	}
}

func TestGenerateDefaults(t *testing.T) {
	v := Generate(GenConfig{Name: "X", Genre: Animation})
	if v.ChunkDurSec != 2 || v.Cap != 2 || v.FPS != 24 {
		t.Errorf("defaults not applied: dur=%v cap=%v fps=%v", v.ChunkDurSec, v.Cap, v.FPS)
	}
	if err := v.Validate(); err != nil {
		t.Errorf("default-generated video invalid: %v", err)
	}
}

func TestChunkAccessors(t *testing.T) {
	v := FFmpegVideo(OpenTitles[0], H264)
	if got, want := v.ChunkBitrate(3, 7), v.ChunkSize(3, 7)/v.ChunkDurSec; got != want {
		t.Errorf("ChunkBitrate = %v, want %v", got, want)
	}
	if got, want := v.AvgBitrateBps(2), v.Tracks[2].AvgBitrateBps; got != want {
		t.Errorf("AvgBitrateBps = %v, want %v", got, want)
	}
	if got, want := v.Tracks[3].ChunkBitrate(5, v.ChunkDurSec), v.ChunkBitrate(3, 5); got != want {
		t.Errorf("Track.ChunkBitrate = %v, want %v", got, want)
	}
}

func TestQuickGeneratedVideosAlwaysValid(t *testing.T) {
	genres := []Genre{Animation, SciFi, Sports, Animal, Nature, Action}
	f := func(seed int64, gi uint8, dur2 bool, cap4 bool) bool {
		cfg := GenConfig{
			Name:  "prop",
			Genre: genres[int(gi)%len(genres)],
			Seed:  seed,
			Cap:   2,
		}
		if dur2 {
			cfg.ChunkDurSec = 2
		} else {
			cfg.ChunkDurSec = 5
		}
		if cap4 {
			cfg.Cap = 4
		}
		return Generate(cfg).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if H264.String() != "h264" || H265.String() != "h265" {
		t.Error("codec strings wrong")
	}
	if FFmpeg.String() != "ffmpeg" || YouTube.String() != "youtube" {
		t.Error("source strings wrong")
	}
	if Codec(9).String() == "" || Source(9).String() == "" || Genre(99).String() == "" {
		t.Error("unknown enum values should still produce a string")
	}
	for g := Animation; g <= Action; g++ {
		if g.String() == "" {
			t.Errorf("genre %d has empty string", g)
		}
	}
}
