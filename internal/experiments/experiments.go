// Package experiments reproduces every table and figure of the paper's
// characterization (§3) and evaluation (§6). Each experiment has an ID
// (fig1, fig2, ..., table1, table2, codec, cap4x, prederr) and a runner
// that regenerates the corresponding rows/series; cmd/abreval exposes them
// on the command line and the repository-root benchmarks time them.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// synthetic simulator, not the authors' testbed), but each runner's output
// preserves the reported shape: who wins, by roughly what factor, and where
// crossovers fall. EXPERIMENTS.md records paper-vs-measured side by side.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// Options tunes experiment scale. The zero value uses paper-scale defaults
// (200 traces per set); benchmarks and tests shrink them.
type Options struct {
	// Traces is the number of traces per set (default 200).
	Traces int
	// Cache memoizes generated videos, derived artifacts and whole sweep
	// results across runners (nil uses the process-wide cache.Shared, so
	// e.g. fig8 and fig9 — which need the same sweep — execute it once).
	Cache *cache.Cache
}

func (o Options) traces() int {
	if o.Traces <= 0 {
		return trace.DefaultSetSize
	}
	return o.Traces
}

func (o Options) cache() *cache.Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return cache.Shared
}

// Result is a completed experiment: the formatted rows that regenerate the
// paper artifact. Its id and title are the ones it was registered under
// (see IDs and Title).
type Result struct {
	Text string
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// registry maps experiment IDs to runners, populated by the per-experiment
// files' init functions.
var registry = map[string]struct {
	title string
	run   Runner
}{}

func register(id, title string, run Runner) {
	registry[id] = struct {
		title string
		run   Runner
	}{title, run}
}

// IDs returns all experiment IDs in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title ("" when unknown).
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given options.
func Run(id string, opt Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.run(opt)
}

// table renders aligned rows.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush() // cannot fail: the underlying writer is a strings.Builder
	return sb.String()
}

// f1, f2 format floats briefly.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// edYouTube returns the canonical YouTube-encoded Elephant Dream,
// generated at most once per process (videos are immutable, so sharing
// the cache.Shared instance across runners and option sets is safe).
func edYouTube() *video.Video {
	return cache.Shared.Generate(video.YouTubeConfig(video.Title{Name: "ED", Genre: video.SciFi}))
}

// edFFmpeg returns the canonical FFmpeg H.264 Elephant Dream.
func edFFmpeg() *video.Video {
	return cache.Shared.Generate(video.FFmpegConfig(video.Title{Name: "ED", Genre: video.SciFi}, video.H264))
}

// comparisonSchemes is the Fig. 8 / Table 1 scheme set.
func comparisonSchemes() []abr.Scheme {
	return []abr.Scheme{sim.CAVA, sim.MPC, sim.RobustMPC, sim.PANDAMaxSum, sim.PANDAMaxMin}
}

// cdfDeciles formats a sample's CDF at the 10th..90th percentiles.
func cdfDeciles(xs []float64) string {
	sorted := metrics.NewSorted(xs)
	parts := make([]string, 0, 9)
	for p := 10.0; p <= 90; p += 10 {
		parts = append(parts, fmt.Sprintf("p%02.0f=%s", p, f1(sorted.Percentile(p))))
	}
	return strings.Join(parts, " ")
}

// sessionMetrics summarizes one scheme's summaries into the five headline
// means used by the tables.
type fiveMetrics struct {
	q4, low, reb, chg, mb float64
}

func meansOf(ss []metrics.Summary) fiveMetrics {
	return fiveMetrics{
		q4:  metrics.Mean(metrics.Collect(ss, metrics.FieldQ4Quality)),
		low: metrics.Mean(metrics.Collect(ss, metrics.FieldLowQualityPct)),
		reb: metrics.Mean(metrics.Collect(ss, metrics.FieldRebuffer)),
		chg: metrics.Mean(metrics.Collect(ss, metrics.FieldQualityChange)),
		mb:  metrics.Mean(metrics.Collect(ss, metrics.FieldDataMB)),
	}
}

// deltaRow renders a Table-1-style row: the CAVA value change vs a baseline
// (absolute for Q4 quality, percentage for the rest).
func deltaRow(cava, base fiveMetrics) []string {
	arrow := func(v float64, pct bool) string {
		sym := "↑"
		if v < 0 {
			sym = "↓"
			v = -v
		}
		if pct {
			return fmt.Sprintf("%s%.0f%%", sym, v)
		}
		return fmt.Sprintf("%s%.1f", sym, v)
	}
	return []string{
		arrow(cava.q4-base.q4, false),
		arrow(metrics.DeltaPct(cava.low, base.low), true),
		arrow(metrics.DeltaPct(cava.reb, base.reb), true),
		arrow(metrics.DeltaPct(cava.chg, base.chg), true),
		arrow(metrics.DeltaPct(cava.mb, base.mb), true),
	}
}

// defaultConfig is the shared §6.1 player configuration.
func defaultConfig() player.Config { return player.DefaultConfig() }
