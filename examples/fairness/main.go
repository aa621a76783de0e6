// fairness: three identical clients compete on one trace-driven bottleneck
// (split TCP-fairly among active downloads) with staggered joins. Reports
// Jain's fairness index over delivered bytes plus per-client QoE — the
// multi-client coupling study.
//
//	go run ./examples/fairness [-traces 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cava/internal/abr"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	traces := flag.Int("traces", 10, "number of LTE traces")
	flag.Parse()

	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	qt := quality.NewTable(v, quality.VMAFPhone)
	cats := scene.ClassifyDefault(v)

	schemes := []abr.Scheme{sim.CAVA, sim.RobustMPC, sim.FESTIVE}

	fmt.Printf("3 competing %s clients, joins 41s apart, link = LTE x3\n\n", v.Name)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tJain(bytes)\tQ4 quality\trebuffer (s)\tquality change")
	for _, sc := range schemes {
		var jain, q4, reb, chg []float64
		for ti := 0; ti < *traces; ti++ {
			tr := trace.GenLTE(ti).Scale(3)
			clients := make([]player.SharedClient, 3)
			for c := range clients {
				clients[c] = player.SharedClient{Video: v, Algo: sc.New(v), JoinDelaySec: float64(c) * 41}
			}
			results, err := player.SimulateShared(tr, clients)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			var bytes []float64
			for _, res := range results {
				bytes = append(bytes, res.TotalBits)
				s := metrics.Summarize(res, qt, cats)
				q4 = append(q4, s.Q4Quality)
				reb = append(reb, s.RebufferSec)
				chg = append(chg, s.QualityChange)
			}
			jain = append(jain, player.JainIndex(bytes))
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.1f\t%.1f\t%.2f\n", sc.Name,
			metrics.Mean(jain), metrics.Mean(q4), metrics.Mean(reb), metrics.Mean(chg))
	}
	w.Flush()
}
