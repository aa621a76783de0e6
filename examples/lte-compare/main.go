// lte-compare: run CAVA against the state-of-the-art baselines over a set
// of LTE traces (the paper's §6.3 setting, at example scale) and print the
// five-metric comparison.
//
//	go run ./examples/lte-compare [-traces 40]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cava/internal/abr"
	"cava/internal/metrics"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	traces := flag.Int("traces", 40, "number of LTE traces")
	flag.Parse()

	v := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	schemes := []abr.Scheme{
		sim.CAVA, sim.MPC, sim.RobustMPC, sim.PANDAMaxMin, sim.BOLAESeg,
		sim.BBA1, sim.RBA, sim.PIA, sim.FESTIVE,
	}

	fmt.Printf("video %s over %d LTE traces (VMAF phone model)\n\n", v.ID(), *traces)
	res, err := sim.Run(sim.Request{
		Videos:  []*video.Video{v},
		Traces:  trace.GenLTESet(*traces),
		Schemes: schemes,
		Metric:  quality.VMAFPhone,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tQ4 quality\tlow-qual %\trebuffer (s)\tqual change\tdata (MB)")
	for _, sc := range schemes {
		ss := res.Summaries(sc.Name, v.ID())
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.2f\t%.1f\n",
			sc.Name,
			sim.MeanOf(ss, metrics.FieldQ4Quality),
			sim.MeanOf(ss, metrics.FieldLowQualityPct),
			sim.MeanOf(ss, metrics.FieldRebuffer),
			sim.MeanOf(ss, metrics.FieldQualityChange),
			sim.MeanOf(ss, metrics.FieldDataMB))
	}
	w.Flush()
}
