package cache

import (
	"fmt"

	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/video"
)

// This file holds the typed artifact helpers: per-video derived artifacts
// (generated videos, quality tables, scene classifications) memoized behind
// the get-or-compute core. All are safe to share across goroutines because
// the underlying values are immutable once computed. Every helper works on
// a nil cache by computing directly.

// Artifact kinds, used as Stats keys.
const (
	KindVideo   = "video"
	KindQuality = "quality"
	KindScene   = "scene"
	KindSim     = "sim"
)

// Generate returns the video for a generator configuration, generating it
// at most once per cache. The full configuration is the key (not the video
// ID: Cap4xConfig and the plain ED H.264 encode share an ID but differ in
// cap).
func (c *Cache) Generate(cfg video.GenConfig) *video.Video {
	if c == nil {
		return video.Generate(cfg)
	}
	v, _ := c.GetOrCompute(KindVideo, GenConfigKey(cfg), func() (any, error) {
		return video.Generate(cfg), nil
	})
	return v.(*video.Video)
}

// GenerateAll returns the videos for a list of configurations, each
// generated at most once per cache.
func (c *Cache) GenerateAll(cfgs []video.GenConfig) []*video.Video {
	out := make([]*video.Video, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = c.Generate(cfg)
	}
	return out
}

// VideoByID returns the dataset video with the given ID, generating at most
// once per cache, or an error when the ID is not in the dataset. Only the
// requested video is generated, unlike video.ByID's original
// scan-the-dataset behavior.
func (c *Cache) VideoByID(id string) (*video.Video, error) {
	cfg, ok := video.ConfigByID(id)
	if !ok {
		return nil, fmt.Errorf("cache: unknown video ID %q", id)
	}
	return c.Generate(cfg), nil
}

// QualityTable returns the per-chunk quality table of a video under a
// metric, computed at most once per (video content, metric).
func (c *Cache) QualityTable(v *video.Video, m quality.Metric) *quality.Table {
	if c == nil {
		return quality.NewTable(v, m)
	}
	key := NewHasher("quality-v1").Str(VideoFingerprint(v)).I64(int64(m)).Sum()
	qt, _ := c.GetOrCompute(KindQuality, key, func() (any, error) {
		return quality.NewTable(v, m), nil
	})
	return qt.(*quality.Table)
}

// Categories returns the default scene classification of a video, computed
// at most once per video content.
func (c *Cache) Categories(v *video.Video) []scene.Category {
	if c == nil {
		return scene.ClassifyDefault(v)
	}
	key := NewHasher("scene-v1").Str(VideoFingerprint(v)).Sum()
	cats, _ := c.GetOrCompute(KindScene, key, func() (any, error) {
		return scene.ClassifyDefault(v), nil
	})
	return cats.([]scene.Category)
}
