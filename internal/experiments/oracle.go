package experiments

import (
	"fmt"
	"strings"

	"cava/internal/abr"
	"cava/internal/metrics"
	"cava/internal/oracle"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
)

func init() {
	register("oracle", "reference: offline-optimal headroom above CAVA and RobustMPC", runOracle)
}

// runOracle compares CAVA and RobustMPC against the offline-optimal
// zero-stall schedule (full future knowledge of bandwidth, sizes and
// quality). The oracle's dynamic program is expensive, so this experiment
// caps the trace count at 20.
func runOracle(opt Options) (*Result, error) {
	nTraces := opt.traces()
	if nTraces > 20 {
		nTraces = 20
	}
	v := edYouTube()
	qt := opt.cache().QualityTable(v, quality.VMAFPhone)
	cats := opt.cache().Categories(v)
	cfg := defaultConfig()

	type agg struct {
		q4, avg, reb, chg, mb []float64
	}
	sums := map[string]*agg{}
	add := func(name string, s metrics.Summary) {
		a := sums[name]
		if a == nil {
			a = &agg{}
			sums[name] = a
		}
		a.q4 = append(a.q4, s.Q4Quality)
		a.avg = append(a.avg, s.AvgQuality)
		a.reb = append(a.reb, s.RebufferSec)
		a.chg = append(a.chg, s.QualityChange)
		a.mb = append(a.mb, s.DataMB)
	}

	infeasible := 0
	for ti := 0; ti < nTraces; ti++ {
		tr := trace.GenLTE(ti)
		plan, err := oracle.Compute(v, tr, qt, oracle.Config{})
		if err != nil {
			return nil, err
		}
		if !plan.Feasible {
			infeasible++
		}
		ores, err := oracle.Replay(v, tr, plan, cfg)
		if err != nil {
			return nil, err
		}
		add("Oracle", metrics.Summarize(ores, qt, cats))

		for _, sc := range []abr.Scheme{sim.CAVA, sim.RobustMPC} {
			res, err := player.Simulate(v, tr, sc.New(v), cfg)
			if err != nil {
				return nil, err
			}
			add(sc.Name, metrics.Summarize(res, qt, cats))
		}
	}

	var sb strings.Builder
	header := []string{"scheme", "Q4 qual", "avg qual", "rebuf (s)", "qual chg", "data MB"}
	var rows [][]string
	for _, name := range []string{"Oracle", "CAVA", "RobustMPC"} {
		a := sums[name]
		rows = append(rows, []string{name,
			f1(metrics.Mean(a.q4)), f1(metrics.Mean(a.avg)), f1(metrics.Mean(a.reb)),
			f2(metrics.Mean(a.chg)), f1(metrics.Mean(a.mb))})
	}
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n(%d LTE traces; %d had no zero-stall schedule; the oracle bounds what any\n", nTraces, infeasible)
	sb.WriteString(" online scheme could achieve — the CAVA-to-oracle gap is the remaining headroom)\n")
	return &Result{Text: sb.String()}, nil
}
