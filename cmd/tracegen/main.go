// Command tracegen generates the LTE and FCC network trace sets and writes
// them as CSV files (one file per trace) or prints summary statistics.
//
// Usage:
//
//	tracegen -set lte -n 200 -out traces/lte
//	tracegen -set fcc -n 200 -out traces/fcc
//	tracegen -set lte -n 50 -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cava/internal/cliutil"
	"cava/internal/metrics"
	"cava/internal/trace"
)

func main() {
	var (
		set   = flag.String("set", "lte", "trace family: lte or fcc")
		n     = flag.Int("n", trace.DefaultSetSize, "number of traces")
		out   = flag.String("out", "", "output directory (omit with -stats)")
		stats = flag.Bool("stats", false, "print summary statistics instead of writing files")
	)
	flag.Parse()
	cliutil.RejectArgs("tracegen")
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -n %d: want a positive trace count\n", *n)
		os.Exit(2)
	}

	var traces []*trace.Trace
	switch *set {
	case "lte":
		traces = trace.GenLTESet(*n)
	case "fcc":
		traces = trace.GenFCCSet(*n)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown set %q (want lte or fcc)\n", *set)
		os.Exit(2)
	}

	if *stats {
		var means, covs, mins []float64
		for _, t := range traces {
			means = append(means, t.Mean()/1e6)
			covs = append(covs, t.CoV())
			mins = append(mins, t.Min()/1e6)
		}
		fmt.Printf("%s set: %d traces, interval %gs, >= %g s each\n",
			*set, len(traces), traces[0].IntervalSec, traces[0].Duration())
		sm, sc := metrics.NewSorted(means), metrics.NewSorted(covs)
		fmt.Printf("per-trace mean (Mbps): median %.2f, p10 %.2f, p90 %.2f\n",
			sm.Median(), sm.Percentile(10), sm.Percentile(90))
		fmt.Printf("per-trace CoV:         median %.2f, p10 %.2f, p90 %.2f\n",
			sc.Median(), sc.Percentile(10), sc.Percentile(90))
		fmt.Printf("per-trace min (Mbps):  median %.2f\n", metrics.Median(mins))
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: need -out <dir> or -stats")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	for _, t := range traces {
		path := filepath.Join(*out, t.ID+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteCSV(f, t); err != nil {
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "tracegen: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: closing %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	fmt.Printf("wrote %d traces to %s\n", len(traces), *out)
}
