// Command abrexport runs a scheme × video × trace sweep and writes the
// per-session metrics as CSV or JSON for external analysis/plotting.
// (One session's decision trace is cava-sim's: -events, -trace-out, -in.)
//
// Usage:
//
//	abrexport -videos ED-youtube-h264,BBB-youtube-h264 -set lte -traces 50 -out results.csv
//	abrexport -videos ED-ffmpeg-h264 -set fcc -traces 200 -format json -out results.json
//	abrexport -schemes cava,robustmpc -videos ED-ffmpeg-h264 -out -   # stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/cliutil"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/report"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	var (
		videosFlag  = flag.String("videos", "ED-ffmpeg-h264", "comma-separated video ids")
		schemesFlag = flag.String("schemes", "cava,mpc,robustmpc,panda-max-sum,panda-max-min", "comma-separated schemes (see cava-sim -list-schemes)")
		set         = flag.String("set", "lte", "trace family: lte or fcc")
		traces      = flag.Int("traces", 50, "traces per set")
		format      = flag.String("format", "csv", "output format: csv or json")
		out         = flag.String("out", "-", "output path ('-' = stdout)")
		cacheDir    = flag.String("cache-dir", "", "persist sweep results as JSON under this directory; a repeated identical invocation loads them instead of re-running")
	)
	flag.Parse()

	// Every flag is checked before the sweep runs and before -out is
	// created, so a bad invocation leaves an existing file untouched.
	cliutil.RejectArgs("abrexport")
	var write func(io.Writer, []report.Row) error
	switch *format {
	case "csv":
		write = report.WriteCSV
	case "json":
		write = report.WriteJSON
	default:
		fail(2, fmt.Errorf("unknown format %q (want csv or json)", *format))
	}
	if *traces <= 0 {
		fail(2, fmt.Errorf("-traces %d: want a positive trace count", *traces))
	}

	c := cache.Shared
	if *cacheDir != "" {
		c = cache.New(cache.WithDir(*cacheDir))
	}

	var videos []*video.Video
	for _, id := range strings.Split(*videosFlag, ",") {
		v, err := c.VideoByID(strings.TrimSpace(id))
		if err != nil {
			fail(2, err)
		}
		videos = append(videos, v)
	}
	var schemes []abr.Scheme
	for _, name := range strings.Split(*schemesFlag, ",") {
		sc, err := cliutil.Scheme(strings.TrimSpace(name))
		if err != nil {
			fail(2, err)
		}
		schemes = append(schemes, sc)
	}

	var trs []*trace.Trace
	var metric quality.Metric
	switch *set {
	case "lte":
		trs = trace.GenLTESet(*traces)
		metric = quality.VMAFPhone
	case "fcc":
		trs = trace.GenFCCSet(*traces)
		metric = quality.VMAFTV
	default:
		fail(2, fmt.Errorf("unknown trace set %q", *set))
	}

	res, err := sim.Run(sim.Request{
		Videos:  videos,
		Traces:  trs,
		Schemes: schemes,
		Config:  player.DefaultConfig(),
		Metric:  metric,
		Cache:   c,
	})
	if err != nil {
		fail(1, err)
	}
	rows := report.Flatten(res)
	if err := cliutil.WriteOutput(*out, func(w io.Writer) error { return write(w, rows) }); err != nil {
		fail(1, err)
	}
	if *out != "-" {
		fmt.Printf("wrote %d session rows to %s\n", len(rows), *out)
	}
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "abrexport: %v\n", err)
	os.Exit(code)
}
