// Command abrexport runs a scheme × video × trace sweep and writes the
// per-session metrics as CSV or JSON for external analysis/plotting.
//
// Usage:
//
//	abrexport -videos ED-youtube-h264,BBB-youtube-h264 -set lte -traces 50 -out results.csv
//	abrexport -videos ED-ffmpeg-h264 -set fcc -traces 200 -format json -out results.json
//	abrexport -schemes cava,robustmpc -videos ED-ffmpeg-h264 -out -   # stdout
//
// The trace subcommand renders one session's ABR decision trace instead,
// either by simulating a session or from a JSONL dump (-trace-out of
// dashserve, or a previous "abrexport trace -format jsonl"):
//
//	abrexport trace -video ED-ffmpeg-h264 -trace lte:0 -scheme cava
//	abrexport trace -in session.jsonl
//	abrexport trace -video ED-ffmpeg-h264 -trace lte:3 -scheme cava -format jsonl -out session.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/cliutil"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/report"
	"cava/internal/sim"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "abrexport trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	runSweep()
}

func runSweep() {
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

	c := cache.Shared
	if *cacheDir != "" {
		c = cache.New(cache.WithDir(*cacheDir))
	}

	var videos []*video.Video
	for _, id := range strings.Split(*videosFlag, ",") {
		v, err := c.VideoByIDErr(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintf(os.Stderr, "abrexport: %v\n", err)
			os.Exit(2)
		}
		videos = append(videos, v)
	}
	var schemes []abr.Scheme
	for _, name := range strings.Split(*schemesFlag, ",") {
		sc, err := cliutil.Scheme(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "abrexport: %v\n", err)
			os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "abrexport: unknown trace set %q\n", *set)
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "abrexport: %v\n", err)
		os.Exit(1)
	}
	rows := report.Flatten(res)

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abrexport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "csv":
		err = report.WriteCSV(w, rows)
	case "json":
		err = report.WriteJSON(w, rows)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "abrexport: %v\n", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Printf("wrote %d session rows to %s\n", len(rows), *out)
	}
}

// runTrace implements the "trace" subcommand: obtain one session's decision
// trace (from a JSONL dump or by simulating the session) and render it.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("abrexport trace", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "read events from a JSONL dump instead of simulating")
		videoID   = fs.String("video", "ED-ffmpeg-h264", "video id to simulate")
		traceSpec = fs.String("trace", "lte:0", "trace spec (lte:<i>, fcc:<i>, const:<mbps>, mahimahi:<path>)")
		scheme    = fs.String("scheme", "cava", "scheme name (see cava-sim -list-schemes)")
		format    = fs.String("format", "table", "output format: table or jsonl")
		out       = fs.String("out", "-", "output path ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var events []telemetry.Event
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err = telemetry.ReadJSONL(f)
		if err != nil {
			return err
		}
	} else {
		v := video.ByID(*videoID)
		if v == nil {
			return fmt.Errorf("unknown video %q", *videoID)
		}
		tr, err := cliutil.ParseTrace(*traceSpec)
		if err != nil {
			return err
		}
		factory, err := cliutil.SchemeByName(*scheme)
		if err != nil {
			return err
		}
		ring := telemetry.NewRing(telemetry.DefaultRingCapacity)
		cfg := player.DefaultConfig()
		cfg.Recorder = ring
		if _, err := player.Simulate(v, tr, factory(v), cfg); err != nil {
			return err
		}
		events = ring.Events()
	}
	if len(events) == 0 {
		return fmt.Errorf("no events to render")
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "jsonl":
		return telemetry.WriteJSONL(w, events)
	case "table":
		return renderTrace(w, events)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// renderTrace prints one line per event, in time order, with the fields that
// matter for each kind.
func renderTrace(w io.Writer, events []telemetry.Event) error {
	if _, err := fmt.Fprintf(w, "session %s: %d events\n", events[0].Session, len(events)); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seq\tt(s)\tkind\tchunk\tlevel\tbuf(s)\test(Mbps)\tdetail")
	for _, ev := range events {
		detail := ev.Detail
		switch ev.Kind {
		case telemetry.KindDecide:
			detail = fmt.Sprintf("target=%.1fs u=%.3f α=%.2f", ev.TargetSec, ev.U, ev.Alpha)
			if ev.Detail != "" {
				detail += " (" + ev.Detail + ")"
			}
		case telemetry.KindDownload:
			detail = fmt.Sprintf("%.2f Mb in %.2fs @ %.1f Mbps",
				ev.SizeBits/1e6, ev.DownloadSec, ev.ThroughputBps/1e6)
			if ev.RebufferSec > 0 {
				detail += fmt.Sprintf(" (stall %.2fs)", ev.RebufferSec)
			}
		case telemetry.KindWait:
			detail = fmt.Sprintf("idle %.2fs", ev.WaitSec)
		case telemetry.KindRetry, telemetry.KindSkip, telemetry.KindFault:
			detail = fmt.Sprintf("attempt %d: %s", ev.Attempt, ev.Detail)
		case telemetry.KindAbandon:
			detail = fmt.Sprintf("from L%d: %s", ev.PrevLevel, ev.Detail)
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%s\t%d\t%d\t%.2f\t%.2f\t%s\n",
			ev.Seq, ev.TimeSec, ev.Kind, ev.Chunk, ev.Level, ev.BufferSec, ev.EstBps/1e6, detail)
	}
	return tw.Flush()
}
