// live-streaming: the §8 future-work setting — an encoder produces chunks
// in real time, the client can never buffer past the live edge, and every
// stall permanently raises end-to-end latency. Compares CAVA with bounded
// lookahead against RobustMPC under identical live constraints.
//
//	go run ./examples/live-streaming [-traces 15]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cava/internal/abr"
	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	traces := flag.Int("traces", 15, "number of LTE traces")
	flag.Parse()

	v := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	qt := quality.NewTable(v, quality.VMAFPhone)
	cats := scene.ClassifyDefault(v)
	cfg := player.DefaultConfig()
	lcfg := player.LiveConfig{EncoderDelaySec: -1} // one chunk of encode delay

	liveCAVA := func(lookahead int) func() abr.Algorithm {
		return func() abr.Algorithm {
			p := core.DefaultParams()
			p.Lookahead = lookahead
			p.BaseTargetBuffer = cfg.StartupSec
			p.TargetMax = cfg.StartupSec + 2*v.ChunkDurSec
			return core.NewWith(v, p, core.AllPrinciples, fmt.Sprintf("CAVA-live%d", lookahead))
		}
	}
	schemes := []struct {
		name string
		make func() abr.Algorithm
	}{
		{"CAVA-live2", liveCAVA(2)},
		{"CAVA-live5", liveCAVA(5)},
		{"RobustMPC", func() abr.Algorithm { return sim.RobustMPC.New(v) }},
	}

	fmt.Printf("live streaming %s over %d LTE traces (10s startup, 1-chunk encode delay)\n\n", v.ID(), *traces)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tQ4 quality\trebuffer (s)\tavg latency (s)\tmax latency (s)\tedge waits (s)")
	for _, sc := range schemes {
		var q4, reb, lat, latMax, wait []float64
		for i := 0; i < *traces; i++ {
			res, err := player.SimulateLive(v, trace.GenLTE(i), sc.make(), cfg, lcfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simulate live:", err)
				os.Exit(1)
			}
			s := metrics.Summarize(&res.Result, qt, cats)
			q4 = append(q4, s.Q4Quality)
			reb = append(reb, s.RebufferSec)
			lat = append(lat, res.AvgLatencySec)
			latMax = append(latMax, res.MaxLatencySec)
			wait = append(wait, res.AvailabilityWaitSec)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n", sc.name,
			metrics.Mean(q4), metrics.Mean(reb), metrics.Mean(lat),
			metrics.Mean(latMax), metrics.Mean(wait))
	}
	w.Flush()
	fmt.Println("\nlatency = live edge minus playhead; it only grows when playback stalls")
}
