package quality

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cava/internal/scene"
	"cava/internal/video"
)

// testMedian avoids importing the metrics package, which depends on this
// package.
func testMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

func edVideo() *video.Video {
	return video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
}

func TestRanges(t *testing.T) {
	v := edVideo()
	for l := 0; l < v.NumTracks(); l++ {
		for i := 0; i < v.NumChunks(); i++ {
			for _, m := range []Metric{VMAFTV, VMAFPhone} {
				q := chunkQuality(v, v.ID(), l, i, m)
				if q < 0 || q > 100 {
					t.Fatalf("%s track %d chunk %d = %v out of [0,100]", m, l, i, q)
				}
			}
			if p := chunkQuality(v, v.ID(), l, i, PSNR); p < 20 || p > 50 {
				t.Fatalf("PSNR track %d chunk %d = %v out of [20,50]", l, i, p)
			}
			if s := chunkQuality(v, v.ID(), l, i, SSIM); s < 0.5 || s > 1 {
				t.Fatalf("SSIM track %d chunk %d = %v out of [0.5,1]", l, i, s)
			}
		}
	}
}

func TestMeanQualityIncreasesWithLevel(t *testing.T) {
	v := edVideo()
	for _, m := range []Metric{VMAFTV, VMAFPhone, PSNR, SSIM} {
		prev := -1.0
		for l := 0; l < v.NumTracks(); l++ {
			sum := 0.0
			for i := 0; i < v.NumChunks(); i++ {
				sum += chunkQuality(v, v.ID(), l, i, m)
			}
			mean := sum / float64(v.NumChunks())
			if mean <= prev {
				t.Errorf("%s: mean quality at level %d (%.2f) not above level %d (%.2f)",
					m, l, mean, l-1, prev)
			}
			prev = mean
		}
	}
}

func TestCompressionScoreMonotone(t *testing.T) {
	// Increasing bits-per-pixel increases the score; increasing complexity
	// at fixed bpp decreases it.
	f := func(a, b uint8, cMilli uint16) bool {
		bppLo := 0.005 + float64(a)*0.001
		bppHi := bppLo + 0.001 + float64(b)*0.001
		c := float64(cMilli%1000) / 1000
		return compressionScore(bppHi, c) >= compressionScore(bppLo, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(bppU uint8, c1, c2 uint16) bool {
		bpp := 0.005 + float64(bppU)*0.002
		a, b := float64(c1%1000)/1000, float64(c2%1000)/1000
		if a > b {
			a, b = b, a
		}
		return compressionScore(bpp, a) >= compressionScore(bpp, b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestQuartileQualityOrdering reproduces the §3.1.2 finding: despite larger
// sizes, Q4 chunks have lower quality than Q1–Q3 chunks in the same track,
// across every metric.
func TestQuartileQualityOrdering(t *testing.T) {
	v := edVideo()
	cats := scene.ClassifyDefault(v)
	mid := v.NumTracks() / 2
	for _, m := range []Metric{VMAFTV, VMAFPhone, PSNR, SSIM} {
		med := map[scene.Category][]float64{}
		for i := 0; i < v.NumChunks(); i++ {
			med[cats[i]] = append(med[cats[i]], chunkQuality(v, v.ID(), mid, i, m))
		}
		q1 := testMedian(med[scene.Q1])
		q4 := testMedian(med[scene.Q4])
		if q4 >= q1 {
			t.Errorf("%s: Q4 median %.2f not below Q1 median %.2f", m, q4, q1)
		}
	}
}

// TestQ4GapMatchesPaper checks the calibrated anchor: at the middle track,
// the phone-model VMAF gap between Q1 and Q4 medians is noticeable (several
// JND-relevant points) but not absurd.
func TestQ4GapMatchesPaper(t *testing.T) {
	v := edVideo()
	cats := scene.ClassifyDefault(v)
	var q1s, q4s []float64
	for i := 0; i < v.NumChunks(); i++ {
		q := chunkQuality(v, v.ID(), 3, i, VMAFPhone)
		switch cats[i] {
		case scene.Q1:
			q1s = append(q1s, q)
		case scene.Q4:
			q4s = append(q4s, q)
		}
	}
	gap := testMedian(q1s) - testMedian(q4s)
	if gap < 3 || gap > 20 {
		t.Errorf("Q1-Q4 phone VMAF gap %.1f outside [3,20]", gap)
	}
}

// Test4xCapRaisesQ4Quality reproduces §3.3: under a 4× cap complex scenes
// get more bits, so Q4 quality improves relative to the 2× encode while
// remaining below Q1–Q3.
func Test4xCapRaisesQ4Quality(t *testing.T) {
	v2 := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	v4 := video.Cap4xED()
	cats2 := scene.ClassifyDefault(v2)
	cats4 := scene.ClassifyDefault(v4)
	q4med := func(v *video.Video, cats []scene.Category) float64 {
		var qs []float64
		for i := 0; i < v.NumChunks(); i++ {
			if cats[i] == scene.Q4 {
				qs = append(qs, chunkQuality(v, v.ID(), 3, i, VMAFPhone))
			}
		}
		return testMedian(qs)
	}
	m2, m4 := q4med(v2, cats2), q4med(v4, cats4)
	if m4 <= m2 {
		t.Errorf("4x-cap Q4 median %.1f not above 2x-cap %.1f", m4, m2)
	}
	// Q4 must still lag Q1 under 4x (§3.3's central point).
	var q1s, q4s []float64
	for i := 0; i < v4.NumChunks(); i++ {
		q := chunkQuality(v4, v4.ID(), 3, i, VMAFPhone)
		if cats4[i] == scene.Q1 {
			q1s = append(q1s, q)
		} else if cats4[i] == scene.Q4 {
			q4s = append(q4s, q)
		}
	}
	if testMedian(q4s) >= testMedian(q1s) {
		t.Error("4x cap erased the Q4 quality deficit entirely")
	}
}

func TestPhoneModelMoreForgiving(t *testing.T) {
	// The phone model scores low resolutions higher than the TV model
	// (small screens hide upscaling loss).
	v := edVideo()
	for l := 0; l < 4; l++ {
		for i := 0; i < v.NumChunks(); i += 17 {
			tv, ph := chunkQuality(v, v.ID(), l, i, VMAFTV), chunkQuality(v, v.ID(), l, i, VMAFPhone)
			if ph < tv {
				t.Fatalf("phone VMAF %.1f below TV %.1f at track %d chunk %d", ph, tv, l, i)
			}
		}
	}
}

func TestH265MatchesH264Quality(t *testing.T) {
	// The H.265 ladder runs at ~0.62x the bitrate for the same quality:
	// per-track mean quality must agree within a couple of VMAF points.
	h4 := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	h5 := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H265)
	for l := 0; l < h4.NumTracks(); l++ {
		m4, m5 := 0.0, 0.0
		for i := 0; i < h4.NumChunks(); i++ {
			m4 += chunkQuality(h4, h4.ID(), l, i, VMAFTV)
		}
		for i := 0; i < h5.NumChunks(); i++ {
			m5 += chunkQuality(h5, h5.ID(), l, i, VMAFTV)
		}
		m4 /= float64(h4.NumChunks())
		m5 /= float64(h5.NumChunks())
		if math.Abs(m4-m5) > 3 {
			t.Errorf("track %d mean TV VMAF: h264 %.1f vs h265 %.1f", l, m4, m5)
		}
	}
}

func TestTableMatchesChunk(t *testing.T) {
	v := edVideo()
	tb := NewTable(v, VMAFPhone)
	for l := 0; l < v.NumTracks(); l++ {
		for i := 0; i < v.NumChunks(); i += 13 {
			if tb.At(l, i) != chunkQuality(v, v.ID(), l, i, VMAFPhone) {
				t.Fatalf("table mismatch at track %d chunk %d", l, i)
			}
		}
	}
	if tb.Metric != VMAFPhone {
		t.Error("table metric not recorded")
	}
}

func TestDeterministic(t *testing.T) {
	v1, v2 := edVideo(), edVideo()
	for i := 0; i < v1.NumChunks(); i += 7 {
		if chunkQuality(v1, v1.ID(), 2, i, VMAFTV) != chunkQuality(v2, v2.ID(), 2, i, VMAFTV) {
			t.Fatalf("quality not deterministic at chunk %d", i)
		}
	}
}

func TestDefaultMetricFor(t *testing.T) {
	if DefaultMetricFor(true) != VMAFPhone {
		t.Error("cellular should use the phone model")
	}
	if DefaultMetricFor(false) != VMAFTV {
		t.Error("broadband should use the TV model")
	}
}

func TestMetricString(t *testing.T) {
	names := map[Metric]string{VMAFTV: "VMAF-TV", VMAFPhone: "VMAF-Phone", PSNR: "PSNR", SSIM: "SSIM"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Metric(42).String() == "" {
		t.Error("unknown metric should still stringify")
	}
}

func TestLadderIndexNearest(t *testing.T) {
	if ladderIndex(video.Resolution{Name: "custom", Width: 900, Height: 500}) != 3 {
		t.Error("500p should map to the 480p rung")
	}
	if ladderIndex(video.Ladder[5]) != 5 {
		t.Error("exact ladder entry mismapped")
	}
}
