// dash-testbed: the §6.8 experiment end to end in one process — a DASH
// segment server behind a trace-shaped TCP link, streamed by CAVA and
// BOLA-E (seg) over real HTTP, with time compressed so a 10-minute session
// takes a few wall seconds.
//
//	go run ./examples/dash-testbed [-scale 120] [-chunks 80]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"cava/internal/abr"
	"cava/internal/dash"
	"cava/internal/metrics"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	scale := flag.Float64("scale", 120, "time compression factor")
	chunks := flag.Int("chunks", 80, "chunks to stream per session")
	flag.Parse()

	v := video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation})
	tr := trace.GenLTE(3)
	qt := quality.NewTable(v, quality.VMAFPhone)
	cats := scene.ClassifyDefault(v)

	schemes := []abr.Scheme{sim.CAVA, sim.BOLAESeg}

	fmt.Printf("streaming %s over %s (mean %.1f Mbps), %gx time scale, %d chunks\n\n",
		v.ID(), tr.ID, tr.Mean()/1e6, *scale, *chunks)

	for _, sc := range schemes {
		// A fresh server + shaped link per session so both schemes see the
		// trace from t=0.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		shaped := dash.NewShapedListener(ln, dash.NewShaper(tr, *scale))
		srv := dash.NewHTTPServer(dash.NewServer(v).Handler())
		go srv.Serve(shaped)

		client, err := dash.NewClient(dash.ClientConfig{
			BaseURL:      "http://" + ln.Addr().String(),
			NewAlgorithm: sc.New,
			TimeScale:    *scale,
			MaxChunks:    *chunks,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := client.Run(context.Background())
		srv.Close()
		if err != nil {
			log.Fatal(err)
		}
		s := metrics.Summarize(res, qt, cats)
		fmt.Printf("%-14s wall %4.1fs | Q4 %.1f | low %.1f%% | rebuf %.1fs | chg %.2f | %.1f MB\n",
			sc.Name, time.Since(start).Seconds(), s.Q4Quality, s.LowQualityPct,
			s.RebufferSec, s.QualityChange, s.DataMB)
	}
}
