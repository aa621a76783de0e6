// Command abreval regenerates the paper's tables and figures.
//
// Usage:
//
//	abreval -list
//	abreval -exp fig8 [-traces 200]
//	abreval -all [-traces 50]
//
// Each experiment prints the rows/series of the corresponding paper
// artifact; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cava/internal/cache"
	"cava/internal/cliutil"
	"cava/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		traces   = flag.Int("traces", 0, "traces per set (default 200)")
		cacheDir = flag.String("cache-dir", "", "persist sweep results as JSON under this directory; repeated invocations skip completed sweeps")
	)
	flag.Parse()
	cliutil.RejectArgs("abreval")
	if *traces < 0 {
		fmt.Fprintf(os.Stderr, "abreval: -traces %d: want a non-negative trace count (0: default)\n", *traces)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}

	opt := experiments.Options{Traces: *traces}
	if *cacheDir != "" {
		opt.Cache = cache.New(cache.WithDir(*cacheDir))
	}
	ids := []string{*exp}
	if *all {
		ids = experiments.IDs()
	} else if *exp == "" {
		fmt.Fprintln(os.Stderr, "abreval: need -exp <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abreval: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("===== %s — %s (%.1fs)\n%s\n", id, experiments.Title(id), time.Since(start).Seconds(), res.Text)
	}
}
