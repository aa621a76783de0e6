package video

import "fmt"

// The paper's 16-video dataset (§2):
//
//   - 8 FFmpeg encodes: the four Xiph open titles (Elephant Dream, Big Buck
//     Bunny, Tears of Steel, Sintel), each encoded in H.264 and H.265 with
//     2-second chunks and a 2× cap following Netflix's per-title recipe.
//   - 8 YouTube encodes: the same four titles plus four downloaded videos
//     (sports, animal, nature, action), all H.264 with ~5-second chunks.
//
// This file reconstructs that dataset deterministically.

// Title describes one source title.
type Title struct {
	Name  string
	Genre Genre
}

// OpenTitles are the four publicly available raw sources.
var OpenTitles = []Title{
	{"ED", SciFi},      // Elephant Dream
	{"BBB", Animation}, // Big Buck Bunny
	{"ToS", SciFi},     // Tears of Steel
	{"Sintel", Animation},
}

// YouTubeOnlyTitles are the four additional YouTube-downloaded titles.
var YouTubeOnlyTitles = []Title{
	{"Sports", Sports},
	{"Animal", Animal},
	{"Nature", Nature},
	{"Action", Action},
}

// FFmpegConfig is the generator configuration of one FFmpeg-pipeline encode
// (2-second chunks, 2× cap, 24 fps film content). Exposed separately from
// FFmpegVideo so callers (the artifact cache) can key on the full
// deterministic input without generating.
func FFmpegConfig(t Title, codec Codec) GenConfig {
	return GenConfig{
		Name:        t.Name,
		Genre:       t.Genre,
		Codec:       codec,
		Source:      FFmpeg,
		ChunkDurSec: 2,
		Cap:         2.0,
		DurationSec: 600,
		FPS:         24,
	}
}

// FFmpegVideo generates one FFmpeg-pipeline encode.
func FFmpegVideo(t Title, codec Codec) *Video {
	return Generate(FFmpegConfig(t, codec))
}

// YouTubeConfig is the generator configuration of one YouTube-pipeline
// encode (5-second chunks, H.264, 30 fps).
func YouTubeConfig(t Title) GenConfig {
	return GenConfig{
		Name:        t.Name,
		Genre:       t.Genre,
		Codec:       H264,
		Source:      YouTube,
		ChunkDurSec: 5,
		Cap:         2.0,
		DurationSec: 600,
		FPS:         30,
	}
}

// YouTubeVideo generates one YouTube-pipeline encode.
func YouTubeVideo(t Title) *Video {
	return Generate(YouTubeConfig(t))
}

// Cap4xConfig is the generator configuration of the 4×-capped Elephant
// Dream encode used in the higher bitrate-variability study (§3.3, §6.6).
// Note it shares a video ID with FFmpegConfig(ED, H264) — only the cap
// differs — so configurations, not IDs, are the cache key for generation.
func Cap4xConfig() GenConfig {
	return GenConfig{
		Name:        "ED",
		Genre:       SciFi,
		Codec:       H264,
		Source:      FFmpeg,
		ChunkDurSec: 2,
		Cap:         4.0,
		DurationSec: 600,
		FPS:         24,
	}
}

// Cap4xED generates the 4×-capped Elephant Dream encode.
func Cap4xED() *Video {
	return Generate(Cap4xConfig())
}

// DatasetConfigs returns the generator configurations of the full
// 16-video dataset in a stable order: 8 FFmpeg encodes (4 titles ×
// {H.264, H.265}) then 8 YouTube encodes.
func DatasetConfigs() []GenConfig {
	var out []GenConfig
	for _, t := range OpenTitles {
		out = append(out, FFmpegConfig(t, H264))
	}
	for _, t := range OpenTitles {
		out = append(out, FFmpegConfig(t, H265))
	}
	for _, t := range OpenTitles {
		out = append(out, YouTubeConfig(t))
	}
	for _, t := range YouTubeOnlyTitles {
		out = append(out, YouTubeConfig(t))
	}
	return out
}

// ID returns the video ID this configuration generates, without
// generating: the same Name-Source-Codec string as Video.ID.
func (cfg GenConfig) ID() string {
	return fmt.Sprintf("%s-%s-%s", cfg.Name, cfg.Source, cfg.Codec)
}

// Dataset generates the full 16-video dataset in DatasetConfigs order.
func Dataset() []*Video {
	var out []*Video
	for _, cfg := range DatasetConfigs() {
		out = append(out, Generate(cfg))
	}
	return out
}

// YouTubeSetConfigs returns the configurations of the 8 YouTube-encoded
// videos (Table 1's rows).
func YouTubeSetConfigs() []GenConfig {
	var out []GenConfig
	for _, t := range OpenTitles {
		out = append(out, YouTubeConfig(t))
	}
	for _, t := range YouTubeOnlyTitles {
		out = append(out, YouTubeConfig(t))
	}
	return out
}

// ConfigByID finds the dataset configuration for an ID string (e.g.
// "ED-ffmpeg-h264") without generating any video.
func ConfigByID(id string) (GenConfig, bool) {
	for _, cfg := range DatasetConfigs() {
		if cfg.ID() == id {
			return cfg, true
		}
	}
	return GenConfig{}, false
}

// ByID finds a video in the dataset by its ID string; it returns nil when
// absent. Unlike Dataset, it generates only the requested video.
func ByID(id string) *Video {
	if cfg, ok := ConfigByID(id); ok {
		return Generate(cfg)
	}
	return nil
}
