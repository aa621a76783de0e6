package experiments

import (
	"strings"

	"cava/internal/abr"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func init() {
	register("autotune", "extension: Oboe-style online re-tuning of CAVA's differential strength", runAutoTune)
}

// runAutoTune compares fixed-parameter CAVA against AutoCAVA, which detects
// the throughput regime online and re-tunes the α factors and guards. The
// interesting contrast is across environments: LTE (volatile) rewards the
// safer tuning while FCC broadband (stable) rewards the aggressive one; the
// auto variant should track the better fixed configuration in each without
// manual intervention — the adaptation Oboe argues for.
func runAutoTune(opt Options) (*Result, error) {
	v := edYouTube()
	schemes := []abr.Scheme{sim.CAVA, sim.CAVAAuto}
	header := []string{"traces", "scheme", "Q4 qual", "low-qual %", "rebuf (s)", "qual chg", "data MB"}
	var rows [][]string
	run := func(label string, traces []*trace.Trace, metric quality.Metric) error {
		res, err := sim.Run(sim.Request{
			Videos:  []*video.Video{v},
			Traces:  traces,
			Schemes: schemes,
			Config:  defaultConfig(),
			Metric:  metric,
			Cache:   opt.cache(),
		})
		if err != nil {
			return err
		}
		for _, sc := range schemes {
			m := meansOf(res.Summaries(sc.Name, v.ID()))
			rows = append(rows, []string{label, sc.Name,
				f1(m.q4), f1(m.low), f1(m.reb), f2(m.chg), f1(m.mb)})
		}
		return nil
	}
	if err := run("LTE", trace.GenLTESet(opt.traces()), quality.VMAFPhone); err != nil {
		return nil, err
	}
	if err := run("FCC", trace.GenFCCSet(opt.traces()), quality.VMAFTV); err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString(table(header, rows))
	sb.WriteString("\n(AutoCAVA re-tunes α and the low-buffer guards from the observed throughput CoV)\n")
	return &Result{Text: sb.String()}, nil
}
