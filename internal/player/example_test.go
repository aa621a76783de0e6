package player_test

import (
	"fmt"
	"log"

	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/trace"
	"cava/internal/video"
)

// Stream one VBR video over one LTE trace with CAVA and print the QoE
// summary: the session `cava-sim` runs with no flags.
func ExampleSimulate() {
	// A video: Elephant Dream as YouTube would encode it, six H.264
	// tracks (144p..1080p), ~5-second chunks, capped VBR.
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	// A network: one synthetic LTE drive-test trace.
	tr := trace.GenLTE(0)
	// An ABR algorithm: CAVA with the paper's defaults.
	algo := core.New(v)

	// Stream it: 10 s startup latency, 100 s client buffer.
	res, err := player.Simulate(v, tr, algo, player.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Score the session with the VMAF phone model and the chunk-size
	// quartile classification (Q4 = the most complex scenes).
	qt := quality.NewTable(v, quality.VMAFPhone)
	s := metrics.Summarize(res, qt, scene.ClassifyDefault(v))

	fmt.Printf("streamed %s over %s with %s\n", v.ID(), tr.ID, res.Scheme)
	fmt.Printf("  startup delay:        %.1f s\n", s.StartupDelaySec)
	fmt.Printf("  Q4 (complex) quality: %.1f VMAF\n", s.Q4Quality)
	fmt.Printf("  Q1-Q3 quality:        %.1f VMAF\n", s.Q13Quality)
	fmt.Printf("  low-quality chunks:   %.1f%%\n", s.LowQualityPct)
	fmt.Printf("  rebuffering:          %.1f s\n", s.RebufferSec)
	fmt.Printf("  quality change:       %.2f VMAF/chunk\n", s.QualityChange)
	fmt.Printf("  data usage:           %.1f MB\n", s.DataMB)
	// Output:
	// streamed ED-youtube-h264 over lte-000 with CAVA
	//   startup delay:        1.2 s
	//   Q4 (complex) quality: 65.1 VMAF
	//   Q1-Q3 quality:        82.3 VMAF
	//   low-quality chunks:   3.3%
	//   rebuffering:          0.2 s
	//   quality change:       3.61 VMAF/chunk
	//   data usage:           132.1 MB
}
