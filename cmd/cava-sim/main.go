// Command cava-sim runs one ABR streaming session and prints what it did:
// the QoE summary, with -v the per-chunk log, or with -events the decision
// trace (one line per event). -trace-out dumps that trace as JSONL and -in
// renders a dump (of cava-sim or dashserve -trace-out) without simulating.
//
// Usage:
//
//	cava-sim -video ED-youtube-h264 -trace lte:0 -scheme cava [-v]
//	cava-sim -video BBB-ffmpeg-h264 -trace fcc:12 -scheme robustmpc
//	cava-sim -video ED-ffmpeg-h264 -trace lte:3 -scheme cava -events
//	cava-sim -video ED-ffmpeg-h264 -trace lte:3 -trace-out session.jsonl
//	cava-sim -in session.jsonl
//	cava-sim -list-videos
//	cava-sim -list-schemes
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"cava/internal/cliutil"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

func main() {
	var (
		videoID     = flag.String("video", "ED-youtube-h264", "video id from the dataset")
		traceSpec   = flag.String("trace", "lte:0", "trace spec: lte:<idx>, fcc:<idx>, const:<mbps>, mahimahi:<path>")
		schemeName  = flag.String("scheme", "cava", "adaptation scheme")
		verbose     = flag.Bool("v", false, "print per-chunk decisions")
		events      = flag.Bool("events", false, "print the session's decision trace instead of the summary")
		traceOut    = flag.String("trace-out", "", "write the session's decision trace as JSONL ('-' = stdout, in place of the report)")
		in          = flag.String("in", "", "render a JSONL decision-trace dump instead of simulating")
		listVideos  = flag.Bool("list-videos", false, "list dataset video ids")
		listSchemes = flag.Bool("list-schemes", false, "list scheme names")
	)
	flag.Parse()
	cliutil.RejectArgs("cava-sim")

	if *listVideos {
		for _, v := range video.Dataset() {
			fmt.Printf("%-22s %d tracks, %d chunks of %.0fs, cap %.0fx\n",
				v.ID(), v.NumTracks(), v.NumChunks(), v.ChunkDurSec, v.Cap)
		}
		return
	}
	if *listSchemes {
		for _, name := range cliutil.SchemeNames() {
			fmt.Println(name)
		}
		return
	}
	if *in != "" {
		if err := renderDump(*in); err != nil {
			fail(1, err)
		}
		return
	}

	v := video.ByID(*videoID)
	if v == nil {
		fail(2, fmt.Errorf("unknown video %q (try -list-videos)", *videoID))
	}
	factory, err := cliutil.SchemeByName(*schemeName)
	if err != nil {
		fail(2, err)
	}
	tr, err := cliutil.ParseTrace(*traceSpec)
	if err != nil {
		fail(2, err)
	}

	cfg := player.DefaultConfig()
	var ring *telemetry.Ring
	if *events || *traceOut != "" {
		ring = telemetry.NewRing(telemetry.DefaultRingCapacity)
		cfg.Recorder = ring
	}
	res, err := player.Simulate(v, tr, factory(v), cfg)
	if err != nil {
		fail(1, err)
	}
	switch {
	case *traceOut == "-":
		// The JSONL dump takes stdout, so it stays parseable.
	case *events:
		err = renderTrace(os.Stdout, ring.Events())
	default:
		printSummary(v, tr, res, *verbose)
	}
	if err == nil && *traceOut != "" {
		err = cliutil.WriteOutput(*traceOut, ring.WriteJSONL)
		if err == nil && *traceOut != "-" {
			fmt.Printf("wrote %d trace events to %s (%d evicted)\n", ring.Len(), *traceOut, ring.Dropped())
		}
	}
	if err != nil {
		fail(1, err)
	}
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "cava-sim: %v\n", err)
	os.Exit(code)
}

// printSummary prints the session's QoE summary, after its per-chunk log
// when verbose.
func printSummary(v *video.Video, tr *trace.Trace, res *player.Result, verbose bool) {
	cellular := strings.HasPrefix(tr.ID, "lte")
	qt := quality.NewTable(v, quality.DefaultMetricFor(cellular))
	cats := scene.ClassifyDefault(v)
	s := metrics.Summarize(res, qt, cats)

	if verbose {
		fmt.Println("chunk  cat  level  size(Mb)  dl(s)  tput(Mbps)  buf(s)  stall(s)  vmaf")
		for _, c := range res.Chunks {
			fmt.Printf("%5d  Q%d   %5d  %8s  %5s  %10s  %6s  %8s  %4.0f\n",
				c.Index, cats[c.Index], c.Level, fixed(c.SizeBits/1e6, 2), fixed(c.DownloadSec, 1),
				fixed(c.ThroughputBps/1e6, 2), fixed(c.BufferAfter, 1), fixed(c.RebufferSec, 1), qt.At(c.Level, c.Index))
		}
		fmt.Println()
	}
	fmt.Printf("video %s | trace %s (mean %s Mbps) | scheme %s\n", v.ID(), tr.ID, fixed(tr.Mean()/1e6, 2), res.Scheme)
	fmt.Printf("  startup delay       %s s\n", fixed(s.StartupDelaySec, 1))
	fmt.Printf("  Q4 chunk quality    %.1f (median %.1f)\n", s.Q4Quality, s.Q4MedianQuality)
	fmt.Printf("  Q1-Q3 chunk quality %.1f\n", s.Q13Quality)
	fmt.Printf("  low-quality chunks  %.1f%%\n", s.LowQualityPct)
	fmt.Printf("  rebuffering         %s s\n", fixed(s.RebufferSec, 1))
	fmt.Printf("  quality change      %.2f /chunk\n", s.QualityChange)
	fmt.Printf("  data usage          %s MB\n", fixed(s.DataMB, 1))
}

// fixed formats x like %.<prec>f up to maxFixed, and with a four-digit
// mantissa and an exponent beyond it, so a session that starves on a
// near-zero trace still prints report-width lines instead of 300-digit
// times.
func fixed(x float64, prec int) string {
	if math.Abs(x) < maxFixed {
		return strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strconv.FormatFloat(x, 'e', 3, 64)
}

// maxFixed is the magnitude from which fixed switches to an exponent: no
// ordinary time, size or rate comes near it.
const maxFixed = 1e9

// renderDump renders the decision trace in a JSONL dump.
func renderDump(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no events to render", path)
	}
	return renderTrace(os.Stdout, events)
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
			detail = fmt.Sprintf("%s Mb in %ss @ %s Mbps",
				fixed(ev.SizeBits/1e6, 2), fixed(ev.DownloadSec, 2), fixed(ev.ThroughputBps/1e6, 1))
			if ev.RebufferSec > 0 {
				detail += fmt.Sprintf(" (stall %ss)", fixed(ev.RebufferSec, 2))
			}
		case telemetry.KindWait:
			detail = fmt.Sprintf("idle %ss", fixed(ev.WaitSec, 2))
		case telemetry.KindRetry, telemetry.KindSkip, telemetry.KindFault:
			detail = fmt.Sprintf("attempt %d: %s", ev.Attempt, ev.Detail)
		case telemetry.KindAbandon:
			detail = fmt.Sprintf("from L%d: %s", ev.PrevLevel, ev.Detail)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\t%s\t%s\t%s\n",
			ev.Seq, fixed(ev.TimeSec, 2), ev.Kind, ev.Chunk, ev.Level, fixed(ev.BufferSec, 2), fixed(ev.EstBps/1e6, 2), detail)
	}
	return tw.Flush()
}
