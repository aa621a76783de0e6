package experiments

import (
	"fmt"
	"strings"

	"cava/internal/abr"
	"cava/internal/fleet"
	"cava/internal/metrics"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func init() {
	register("fleet", "population view: QoE distributions across a discrete-event session fleet", runFleet)
}

// runFleet is the population-scale counterpart of the per-session sweeps:
// instead of one session per (video, trace, scheme) cell, the discrete-event
// engine runs thousands of concurrent sessions with Poisson arrivals and
// random trace offsets over the full mixed corpus — half LTE, half FCC
// (lte:100,fcc:100 = the 200-trace paper corpus at default scale, not the
// reduced bench mix) — and reports each scheme's fleet-level distributions:
// the tail percentiles an operator sees, which cell means hide. Sessions
// scale with the trace-count option (25 sessions per trace: 200 traces →
// 5000 sessions at paper scale); the engine shards across all cores.
func runFleet(opt Options) (*Result, error) {
	videos := []*video.Video{edYouTube(), edFFmpeg()}
	nTraces := opt.traces()
	traces := append(trace.GenLTESet((nTraces+1)/2), trace.GenFCCSet(nTraces/2)...)
	sessions := 25 * nTraces
	schemes := []abr.Scheme{sim.CAVA, sim.RobustMPC, sim.BBA1, sim.RBA}

	header := []string{"scheme", "metric", "p10", "p50", "p90", "p99"}
	var rows [][]string
	for _, sc := range schemes {
		res, err := fleet.Run(fleet.Config{
			Videos:             videos,
			Traces:             traces,
			Scheme:             sc,
			Player:             defaultConfig(),
			Sessions:           sessions,
			ArrivalRatePerSec:  2,
			RandomTraceOffsets: true,
			Seed:               1,
			Metric:             quality.VMAFPhone,
			Cache:              opt.cache(),
		})
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			name string
			s    metrics.Sorted
		}{
			{"rebuffer (s)", res.RebufferSec},
			{"startup (s)", res.StartupDelaySec},
			{"avg quality", res.AvgQuality},
			{"switches", res.Switches},
			{"data MB", res.DataMB},
		} {
			rows = append(rows, []string{sc.Name, m.name,
				f1(m.s.Percentile(10)), f1(m.s.Percentile(50)),
				f1(m.s.Percentile(90)), f1(m.s.Percentile(99))})
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%d sessions per scheme, %d videos × %d traces (%d LTE + %d FCC), Poisson arrivals (2/s), random trace offsets\n\n",
		sessions, len(videos), len(traces), (nTraces+1)/2, nTraces/2)
	sb.WriteString(table(header, rows))
	sb.WriteString("\nReading: per-session distributions across the whole fleet; p99 rebuffer is the\n" +
		"operator's pain metric. Every scheme sees the identical session population\n" +
		"(same seed ⇒ same video/trace/offset/arrival assignment).\n")
	return &Result{Text: sb.String()}, nil
}
