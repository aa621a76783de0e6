package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/video"
)

func craftedSession() (*player.Result, *quality.Table, []scene.Category) {
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	qt := quality.NewTable(v, quality.VMAFPhone)
	cats := scene.ClassifyDefault(v)
	res := &player.Result{VideoID: v.ID(), TraceID: "t", Scheme: "s"}
	for i := 0; i < v.NumChunks(); i++ {
		res.Chunks = append(res.Chunks, player.ChunkRecord{ChunkStep: player.ChunkStep{
			Index: i, Level: i % v.NumTracks(), SizeBits: v.ChunkSize(i%v.NumTracks(), i),
		}})
		res.TotalBits += v.ChunkSize(i%v.NumTracks(), i)
	}
	res.TotalRebufferSec = 3.5
	res.StartupDelaySec = 2.25
	return res, qt, cats
}

func TestSummarizeBasics(t *testing.T) {
	res, qt, cats := craftedSession()
	s := Summarize(res, qt, cats)
	if s.Scheme != "s" || s.TraceID != "t" {
		t.Error("identity fields not propagated")
	}
	if s.RebufferSec != 3.5 {
		t.Errorf("RebufferSec = %v", s.RebufferSec)
	}
	if s.StartupDelaySec != 2.25 {
		t.Errorf("StartupDelaySec = %v", s.StartupDelaySec)
	}
	if want := res.TotalBits / 8 / 1e6; math.Abs(s.DataMB-want) > 1e-9 {
		t.Errorf("DataMB = %v, want %v", s.DataMB, want)
	}
	if len(s.ChunkQualities) != len(res.Chunks) {
		t.Error("per-chunk qualities missing")
	}
	if s.Q4Quality <= 0 || s.Q13Quality <= 0 || s.AvgQuality <= 0 {
		t.Error("category means not computed")
	}
	if s.LowQualityPct < 0 || s.LowQualityPct > 100 {
		t.Errorf("LowQualityPct = %v", s.LowQualityPct)
	}
}

func TestSummarizeQualityChange(t *testing.T) {
	res, qt, cats := craftedSession()
	s := Summarize(res, qt, cats)
	want := 0.0
	for i := 1; i < len(s.ChunkQualities); i++ {
		want += math.Abs(s.ChunkQualities[i] - s.ChunkQualities[i-1])
	}
	want /= float64(len(s.ChunkQualities))
	if math.Abs(s.QualityChange-want) > 1e-9 {
		t.Errorf("QualityChange = %v, want %v", s.QualityChange, want)
	}
}

func TestSummarizeAggregatesConsistent(t *testing.T) {
	res, qt, cats := craftedSession()
	s := Summarize(res, qt, cats)
	// AvgQuality must be the weighted mean of the category means.
	var nQ4, nQ13 int
	for _, c := range cats {
		if scene.IsComplex(c) {
			nQ4++
		} else {
			nQ13++
		}
	}
	want := (s.Q4Quality*float64(nQ4) + s.Q13Quality*float64(nQ13)) / float64(nQ4+nQ13)
	if math.Abs(s.AvgQuality-want) > 1e-9 {
		t.Errorf("AvgQuality = %v, want %v", s.AvgQuality, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	res := &player.Result{Scheme: "x"}
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	qt := quality.NewTable(v, quality.VMAFPhone)
	s := Summarize(res, qt, scene.ClassifyDefault(v))
	if s.Q4Quality != 0 || s.AvgQuality != 0 {
		t.Error("empty session should produce zero metrics")
	}
}

func TestMedianAndMean(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median wrong")
	}
	if Median(nil) != 0 {
		t.Error("empty median wrong")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if Percentile(xs, 10) != 10 {
		t.Errorf("p10 = %v", Percentile(xs, 10))
	}
	if Percentile(xs, 90) != 90 {
		t.Errorf("p90 = %v", Percentile(xs, 90))
	}
	if Percentile(xs, 0) != 10 || Percentile(xs, 100) != 100 {
		t.Error("extremes wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile wrong")
	}
}

func TestSortedMatchesPackageFunctions(t *testing.T) {
	xs := []float64{9, 3, 7, 1, 5, 8, 2, 6, 4, 10}
	s := NewSorted(xs)
	if s.Len() != len(xs) {
		t.Fatalf("Len = %d", s.Len())
	}
	for p := 0.0; p <= 100; p += 5 {
		if got, want := s.Percentile(p), Percentile(xs, p); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if s.Median() != Median(xs) {
		t.Errorf("Median = %v, want %v", s.Median(), Median(xs))
	}
	if s.Mean() != Mean(xs) {
		t.Errorf("Mean = %v, want %v", s.Mean(), Mean(xs))
	}
	c, c2 := s.CDF(), NewCDF(xs)
	for i := range c.X {
		if c.X[i] != c2.X[i] || c.P[i] != c2.P[i] {
			t.Fatalf("CDF differs at %d", i)
		}
	}
}

func TestSortedDoesNotAliasInput(t *testing.T) {
	xs := []float64{2, 1, 3}
	s := NewSorted(xs)
	xs[0] = 99
	if s.Percentile(0) != 1 || s.Percentile(100) != 3 {
		t.Error("Sorted retained the caller's slice")
	}
	var empty Sorted
	if empty.Percentile(50) != 0 || empty.Median() != 0 || empty.Mean() != 0 {
		t.Error("zero-value Sorted not safe")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 2})
	if !sort.Float64sAreSorted(c.X) {
		t.Error("CDF values not sorted")
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.75 {
		t.Errorf("At(2) = %v, want 0.75", got)
	}
	if got := c.At(3); got != 1 {
		t.Errorf("At(3) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v, want 3", got)
	}
}

// TestQuantileMatchesPercentile is the regression test for the floor-rank
// Quantile: it used to return index int(p*n) while Percentile used
// nearest-rank ceil(p*n)-1, so the two disagreed on the same sample — e.g.
// the median of [1,2,3,4] was 3 by Quantile but 2 by Percentile. The two
// rules must agree everywhere.
func TestQuantileMatchesPercentile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) of [1,2,3,4] = %v, want 2 (nearest-rank)", got)
	}
	samples := [][]float64{
		{1, 2, 3, 4},
		{5},
		{2, 2, 2, 7},
		{-3, 0, 0.5, 9, 9, 12, 40, 41},
		{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
	for _, xs := range samples {
		c := NewCDF(xs)
		for p := 0.0; p <= 1.0; p += 0.05 {
			if got, want := c.Quantile(p), Percentile(xs, p*100); got != want {
				t.Fatalf("sample %v: Quantile(%v) = %v, Percentile(%v) = %v — rules diverge",
					xs, p, got, p*100, want)
			}
		}
	}
	var empty CDF
	if empty.Quantile(0.5) != 0 {
		t.Error("empty Quantile should be 0")
	}
}

func TestCDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		// P is non-decreasing and ends at 1.
		for i := 1; i < len(c.P); i++ {
			if c.P[i] < c.P[i-1] {
				return false
			}
		}
		if c.P[len(c.P)-1] != 1 {
			return false
		}
		// At(max) == 1, At(just below min) == 0.
		below := math.Nextafter(c.X[0], math.Inf(-1))
		return c.At(c.X[len(c.X)-1]) == 1 && c.At(below) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeltaPct(t *testing.T) {
	if DeltaPct(110, 100) != 10 {
		t.Error("positive delta wrong")
	}
	if DeltaPct(90, 100) != -10 {
		t.Error("negative delta wrong")
	}
	if DeltaPct(5, 0) != 0 {
		t.Error("zero-base delta should be 0")
	}
}

func TestCollectAndFields(t *testing.T) {
	ss := []Summary{
		{Q4Quality: 70, LowQualityPct: 5, RebufferSec: 1, QualityChange: 2, DataMB: 100},
		{Q4Quality: 80, LowQualityPct: 15, RebufferSec: 3, QualityChange: 4, DataMB: 200},
	}
	if got := Collect(ss, FieldQ4Quality); got[0] != 70 || got[1] != 80 {
		t.Error("FieldQ4Quality wrong")
	}
	if got := Mean(Collect(ss, FieldDataMB)); got != 150 {
		t.Error("FieldDataMB aggregation wrong")
	}
	if Collect(ss, FieldLowQualityPct)[1] != 15 ||
		Collect(ss, FieldRebuffer)[1] != 3 ||
		Collect(ss, FieldQualityChange)[1] != 4 {
		t.Error("field selectors wrong")
	}
}
