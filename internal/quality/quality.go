// Package quality provides parametric perceptual-quality models for the
// synthetic VBR dataset: VMAF (TV and phone models), PSNR and SSIM.
//
// Real VMAF/PSNR/SSIM require pixel data. Here each metric is a calibrated
// rate–quality surface Q(bits-per-pixel, scene complexity, resolution): it
// increases with bits-per-pixel, decreases with scene complexity at a fixed
// bitrate (the paper's central §3.1.2 finding — complex scenes have
// inferior quality despite more bits), and is ceilinged by the encode
// resolution (upscaling loss, with the phone model more forgiving of low
// resolutions than the TV model, as with Netflix's two VMAF models). The
// anchors follow the paper: for a middle (480p) track, Q4 chunks sit
// noticeably below Q1–Q3 (e.g. median phone-VMAF ≈ 79 vs 85–88 under a 4×
// cap, a wider gap under 2×), VMAF < 40 marks low/unacceptable quality,
// VMAF > 60 good quality, and a difference of 6 is one JND.
package quality

import (
	"fmt"
	"hash/fnv"
	"math"

	"cava/internal/video"
)

// Metric selects a quality model.
type Metric int

// Supported metrics.
const (
	VMAFTV Metric = iota
	VMAFPhone
	PSNR
	SSIM
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case VMAFTV:
		return "VMAF-TV"
	case VMAFPhone:
		return "VMAF-Phone"
	case PSNR:
		return "PSNR"
	case SSIM:
		return "SSIM"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Paper-aligned VMAF interpretation thresholds (§6.1, [50],[31]).
const (
	// LowQualityVMAF marks poor/unacceptable quality.
	LowQualityVMAF = 40.0
	// GoodQualityVMAF marks good viewing quality.
	GoodQualityVMAF = 60.0
)

// Model parameters of the compression-quality sigmoid
// q = 1/(1+exp(-a·ln(bppEff/d(c)))), d(c) = d0·exp(g·c).
const (
	sigA = 1.7
	d0   = 0.0026
	gCx  = 3.2
)

// resCeilTV / resCeilPhone give the per-rung quality ceiling (out of 100)
// imposed by upscaling to the viewing display. Index matches video.Ladder.
var resCeilTV = []float64{30, 44, 61, 76, 91, 100}
var resCeilPhone = []float64{45, 60, 76, 88, 97, 100}

// codecBppFactor returns the bits-per-pixel an encoder needs relative to
// H.264 for equal quality.
func codecBppFactor(c video.Codec) float64 {
	if c == video.H265 {
		return 0.62
	}
	return 1.0
}

// compressionScore returns the 0..1 compression quality of a chunk before
// the resolution ceiling: bppEff is codec-normalized bits per pixel and c
// the latent scene complexity.
func compressionScore(bppEff, c float64) float64 {
	if bppEff <= 0 {
		return 0
	}
	demand := d0 * math.Exp(gCx*c)
	return 1 / (1 + math.Exp(-sigA*math.Log(bppEff/demand)))
}

// chunkScore returns the 0..1 compression score of chunk i at track level,
// including a small deterministic per-chunk perturbation standing in for
// frame-level measurement scatter; id is v.ID(), which keys the scatter.
func chunkScore(v *video.Video, id string, level, chunk int) float64 {
	t := &v.Tracks[level]
	px := float64(t.Res.Width) * float64(t.Res.Height) * v.FPS * v.ChunkDurSec
	bpp := t.ChunkSizesBits[chunk] / px
	bppEff := bpp / codecBppFactor(v.Codec)
	s := compressionScore(bppEff, v.Complexity[chunk])
	// ±0.02 deterministic scatter.
	s += 0.02 * noise(id, level, chunk)
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// noise returns a deterministic pseudo-random value in [-1, 1) keyed by
// video/track/chunk.
func noise(id string, level, chunk int) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{byte(level), byte(chunk), byte(chunk >> 8)})
	u := h.Sum64()
	return float64(u%200000)/100000 - 1
}

// chunkQuality returns the quality of chunk i at track level under metric
// m. VMAF values are in [0,100], PSNR in dB (roughly 22–50), SSIM in
// (0,1]. The video's ID is passed in so that NewTable formats it once per
// table rather than once per cell.
func chunkQuality(v *video.Video, id string, level, chunk int, m Metric) float64 {
	s := chunkScore(v, id, level, chunk)
	rung := ladderIndex(v.Tracks[level].Res)
	switch m {
	case VMAFTV:
		return s * resCeilTV[rung]
	case VMAFPhone:
		return s * resCeilPhone[rung]
	case PSNR:
		// Map compression score and a milder resolution factor into dB.
		rf := 0.6 + 0.4*resCeilTV[rung]/100
		return 22 + 26*s*rf
	case SSIM:
		rf := 0.55 + 0.45*resCeilTV[rung]/100
		return 0.62 + 0.38*math.Pow(s*rf, 0.8)
	default:
		return 0
	}
}

// ladderIndex maps a resolution to its rung in video.Ladder, falling back
// to the nearest rung by height so custom ladders still work.
func ladderIndex(res video.Resolution) int {
	best, bestDiff := 0, math.MaxFloat64
	for i, lr := range video.Ladder {
		d := math.Abs(float64(lr.Height - res.Height))
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// Table precomputes per-chunk quality for every track of a video under one
// metric, for O(1) lookups in simulations and experiments.
type Table struct {
	// Metric is the metric the table holds.
	Metric Metric
	// Values is indexed [level][chunk].
	Values [][]float64
}

// NewTable computes the full quality table of a video.
func NewTable(v *video.Video, m Metric) *Table {
	t := &Table{Metric: m, Values: make([][]float64, v.NumTracks())}
	id := v.ID()
	for l := range v.Tracks {
		row := make([]float64, v.NumChunks())
		for i := range row {
			row[i] = chunkQuality(v, id, l, i, m)
		}
		t.Values[l] = row
	}
	return t
}

// At returns the quality of chunk i at track level.
func (t *Table) At(level, chunk int) float64 { return t.Values[level][chunk] }

// DefaultMetricFor returns the VMAF model the paper pairs with a trace
// family: phone for cellular viewing, TV for home broadband (§6.1).
func DefaultMetricFor(cellular bool) Metric {
	if cellular {
		return VMAFPhone
	}
	return VMAFTV
}
