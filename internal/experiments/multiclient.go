package experiments

import (
	"fmt"
	"strings"

	"cava/internal/abr"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
)

func init() {
	register("multiclient", "extension: fairness and stability of competing players on one bottleneck", runMultiClient)
}

// runMultiClient puts three identical players behind one trace-driven
// bottleneck (the FESTIVE setting) and reports per-scheme fairness (Jain
// index over delivered bytes), quality and stalls. The shared link couples
// the players: a scheme that reacts violently to its competitors'
// on/off downloading oscillates and splits capacity unevenly.
func runMultiClient(opt Options) (*Result, error) {
	const clientsPerRun = 3
	nTraces := opt.traces()
	if nTraces > 40 {
		nTraces = 40 // shared sessions are ~3x the work of solo ones
	}
	v := edYouTube()
	qt := opt.cache().QualityTable(v, quality.VMAFPhone)
	cats := opt.cache().Categories(v)

	schemes := []abr.Scheme{sim.CAVA, sim.RobustMPC, sim.FESTIVE, sim.BOLAESeg, sim.RBA}

	header := []string{"scheme", "Jain(bytes)", "Q4 qual", "low-qual %", "rebuf (s)", "qual chg"}
	var rows [][]string
	for _, sc := range schemes {
		var jains, q4s, lows, rebs, chgs []float64
		for ti := 0; ti < nTraces; ti++ {
			// Scale the link so three clients share roughly one client's
			// usual capacity each.
			tr := trace.GenLTE(ti).Scale(clientsPerRun)
			clients := make([]player.SharedClient, clientsPerRun)
			for c := range clients {
				clients[c] = player.SharedClient{
					Video: v, Algo: sc.New(v),
					// Staggered joins break the lockstep of identical
					// deterministic clients.
					JoinDelaySec: float64(c) * 41,
				}
			}
			results, err := player.SimulateShared(tr, clients)
			if err != nil {
				return nil, err
			}
			var bytes []float64
			for _, res := range results {
				bytes = append(bytes, res.TotalBits)
				s := metrics.Summarize(res, qt, cats)
				q4s = append(q4s, s.Q4Quality)
				lows = append(lows, s.LowQualityPct)
				rebs = append(rebs, s.RebufferSec)
				chgs = append(chgs, s.QualityChange)
			}
			jains = append(jains, player.JainIndex(bytes))
		}
		rows = append(rows, []string{
			sc.Name,
			fmt.Sprintf("%.3f", metrics.Mean(jains)),
			f1(metrics.Mean(q4s)), f1(metrics.Mean(lows)),
			f1(metrics.Mean(rebs)), f2(metrics.Mean(chgs)),
		})
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n(%d traces x %d identical competing clients per scheme; the link is the\n", nTraces, clientsPerRun)
	sb.WriteString(" LTE trace scaled x3 and split TCP-fairly among active downloads;\n")
	sb.WriteString(" clients join 41 s apart)\n")
	return &Result{Text: sb.String()}, nil
}
