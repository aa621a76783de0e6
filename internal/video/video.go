// Package video models VBR-encoded ABR videos: tracks, chunks, per-chunk
// sizes, and the latent scene-complexity process that drives them.
//
// The CAVA paper's dataset consists of 16 roughly 10-minute videos, each
// with six tracks (144p–1080p): 8 encoded by YouTube (H.264, ~5-second
// chunks) and 8 encoded with FFmpeg following Netflix's per-title three-pass
// recipe (H.264 and H.265, 2-second chunks, 2×-capped VBR). This package
// reproduces that dataset synthetically: every video is generated from a
// deterministic seeded scene-complexity process, and chunk sizes follow
// capped-VBR bit allocation so that the statistical properties the paper
// reports hold — per-track coefficient of variation between 0.3 and 0.6,
// peak/average ratios between 1.1× and 2.4×, reduced variability on the two
// lowest tracks, and near-perfect cross-track correlation of relative chunk
// sizes.
package video

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Codec identifies the video codec used for a track family.
type Codec int

// Supported codecs. H.265 achieves the same quality at a substantially
// lower bitrate than H.264; the ladder reflects that.
const (
	H264 Codec = iota
	H265
)

// String returns the conventional codec name.
func (c Codec) String() string {
	switch c {
	case H264:
		return "h264"
	case H265:
		return "h265"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// Source identifies the encoding pipeline a video came from.
type Source int

// Encoding pipelines in the paper's dataset.
const (
	// FFmpeg denotes the Netflix-recipe three-pass encodes: 2-second
	// chunks, explicit 2× cap.
	FFmpeg Source = iota
	// YouTube denotes the commercial-service encodes: ~5-second chunks,
	// observed peak/average between 1.1× and 2.3×.
	YouTube
)

// String returns the pipeline name.
func (s Source) String() string {
	switch s {
	case FFmpeg:
		return "ffmpeg"
	case YouTube:
		return "youtube"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Genre captures the content category, which shapes the scene-complexity
// process (scene lengths, complexity mean and spread).
type Genre int

// Content genres in the dataset.
const (
	Animation Genre = iota
	SciFi
	Sports
	Animal
	Nature
	Action
)

// String returns the genre name.
func (g Genre) String() string {
	switch g {
	case Animation:
		return "animation"
	case SciFi:
		return "scifi"
	case Sports:
		return "sports"
	case Animal:
		return "animal"
	case Nature:
		return "nature"
	case Action:
		return "action"
	default:
		return fmt.Sprintf("genre(%d)", int(g))
	}
}

// Resolution is one rung of the encoding ladder.
type Resolution struct {
	Name          string
	Width, Height int
}

// Ladder is the six-track encoding ladder used throughout the paper
// (144p through 1080p).
var Ladder = []Resolution{
	{"144p", 256, 144},
	{"240p", 426, 240},
	{"360p", 640, 360},
	{"480p", 854, 480},
	{"720p", 1280, 720},
	{"1080p", 1920, 1080},
}

// h264LadderBitrate gives the per-title target average bitrate in bits/sec
// for each ladder rung under H.264, in line with the paper's Fig. 1 ladder.
var h264LadderBitrate = []float64{
	100e3,  // 144p
	250e3,  // 240p
	560e3,  // 360p
	1.10e6, // 480p
	2.60e6, // 720p
	4.80e6, // 1080p
}

// h265Efficiency is the bitrate ratio of H.265 to H.264 at equal quality.
const h265Efficiency = 0.62

// Track is one bitrate/quality rung of a video: a full rendition of the
// content at a fixed resolution, divided into chunks of the video's chunk
// duration.
type Track struct {
	// ID is the 0-based track index (0 = lowest quality).
	ID int
	// Res is the track's encoded resolution.
	Res Resolution
	// AvgBitrateBps is the achieved average bitrate in bits/sec.
	AvgBitrateBps float64
	// PeakBitrateBps is the highest per-chunk bitrate in bits/sec.
	PeakBitrateBps float64
	// DeclaredBitrateBps is the bitrate advertised in the manifest, which for
	// VBR encodes is the encoder's target average.
	DeclaredBitrateBps float64
	// ChunkSizesBits holds the per-chunk size in bits.
	ChunkSizesBits []float64
}

// ChunkBitrate returns the bitrate (bits/sec) of chunk i given the chunk
// playback duration.
func (t *Track) ChunkBitrate(i int, chunkDurSec float64) float64 {
	return t.ChunkSizesBits[i] / chunkDurSec
}

// CoV returns the coefficient of variation of the track's chunk sizes.
func (t *Track) CoV() float64 {
	if len(t.ChunkSizesBits) == 0 {
		return 0
	}
	mean := 0.0
	for _, s := range t.ChunkSizesBits {
		mean += s
	}
	mean /= float64(len(t.ChunkSizesBits))
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, s := range t.ChunkSizesBits {
		d := s - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(t.ChunkSizesBits))) / mean
}

// PeakToAvg returns the ratio of peak chunk bitrate to average bitrate.
func (t *Track) PeakToAvg() float64 {
	if t.AvgBitrateBps == 0 {
		return 0
	}
	return t.PeakBitrateBps / t.AvgBitrateBps
}

// Video is a complete ABR-ready VBR video: several tracks of the same
// content plus the latent per-chunk scene complexity that generated them.
//
// The Complexity series is part of the synthetic ground truth (it stands in
// for the raw footage); ABR algorithms must not read it — they only see
// chunk sizes, declared bitrates and (for PANDA/CQ only) quality values, as
// in the DASH/HLS manifests the paper targets.
type Video struct {
	// Name identifies the title (e.g. "ED" for Elephant Dream).
	Name string
	// Genre is the content category.
	Genre Genre
	// Codec is the encoding codec of all tracks.
	Codec Codec
	// Source is the encoding pipeline.
	Source Source
	// ChunkDurSec is the chunk playback duration in seconds.
	ChunkDurSec float64
	// Cap is the configured peak/average bitrate cap (e.g. 2.0).
	Cap float64
	// FPS is the frame rate, used by the quality models.
	FPS float64
	// Complexity holds the latent per-chunk scene complexity in [0,1].
	Complexity []float64
	// Tracks are the renditions in ascending bitrate order.
	Tracks []Track
}

// ID returns a unique identifier combining name, source and codec.
func (v *Video) ID() string {
	return fmt.Sprintf("%s-%s-%s", v.Name, v.Source, v.Codec)
}

// NumChunks returns the number of chunks per track.
func (v *Video) NumChunks() int { return len(v.Complexity) }

// NumTracks returns the number of tracks.
func (v *Video) NumTracks() int { return len(v.Tracks) }

// Duration returns the playback duration in seconds.
func (v *Video) Duration() float64 {
	return float64(v.NumChunks()) * v.ChunkDurSec
}

// ChunkSize returns the size in bits of chunk i at track level.
func (v *Video) ChunkSize(level, i int) float64 {
	return v.Tracks[level].ChunkSizesBits[i]
}

// ChunkBitrate returns the bitrate in bits/sec of chunk i at track level.
func (v *Video) ChunkBitrate(level, i int) float64 {
	return v.Tracks[level].ChunkSizesBits[i] / v.ChunkDurSec
}

// AvgBitrateBps returns track level's average bitrate in bits/sec.
func (v *Video) AvgBitrateBps(level int) float64 { return v.Tracks[level].AvgBitrateBps }

// Validate checks the structural invariants every generated video must
// satisfy: at least one track, a finite positive chunk duration, equal
// chunk counts across tracks, ascending average bitrates, and positive
// chunk sizes.
func (v *Video) Validate() error {
	if len(v.Tracks) == 0 {
		return fmt.Errorf("video %s: no tracks", v.ID())
	}
	if !(v.ChunkDurSec > 0) || math.IsInf(v.ChunkDurSec, 1) {
		return fmt.Errorf("video %s: chunk duration %v s, want a finite positive number", v.ID(), v.ChunkDurSec)
	}
	n := v.NumChunks()
	if n == 0 {
		return fmt.Errorf("video %s: no chunks", v.ID())
	}
	prev := 0.0
	for li, t := range v.Tracks {
		if len(t.ChunkSizesBits) != n {
			return fmt.Errorf("video %s: track %d has %d chunks, want %d", v.ID(), li, len(t.ChunkSizesBits), n)
		}
		if t.AvgBitrateBps <= prev {
			return fmt.Errorf("video %s: track %d average bitrate %.0f not above previous %.0f", v.ID(), li, t.AvgBitrateBps, prev)
		}
		prev = t.AvgBitrateBps
		for ci, s := range t.ChunkSizesBits {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("video %s: track %d chunk %d has bad size %v", v.ID(), li, ci, s)
			}
		}
	}
	for i, c := range v.Complexity {
		if c < 0 || c > 1 || math.IsNaN(c) {
			return fmt.Errorf("video %s: chunk %d has bad complexity %v", v.ID(), i, c)
		}
	}
	return nil
}

// seedFor derives a stable 64-bit seed from a video identity string.
func seedFor(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
