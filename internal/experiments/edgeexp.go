package experiments

import (
	"fmt"
	"strings"

	"cava/internal/chaos"
	"cava/internal/dash"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func init() {
	register("edge", "edge/CDN tier under origin kill: failover, stale serving, cache recovery", runEdgeChaos)
}

// runEdgeChaos drives the edge-tier chaos harness: staggered sessions stream
// through the edge (consistent-hash origins, segment cache, SWR manifests)
// while the origin-lifecycle controller kills the primary origin mid-run and
// restarts it. The contrast cell keeps every origin alive. Both cells are
// checked against the edge invariants: ≥ 99% completion through failover and
// stale serving, nonzero failover and stale counters across the kill, cache
// hits resuming after the restart, and no goroutine leak.
func runEdgeChaos(opt Options) (*Result, error) {
	const seed = 7
	base := chaos.Config{
		Video:     opt.cache().Generate(video.FFmpegConfig(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)),
		Trace:     trace.Constant("link40", 40e6, 1200, 1),
		Scheme:    sim.CAVA,
		Seed:      seed,
		TimeScale: 240,
		MaxChunks: 6,
		Sessions:  16,
	}
	cells := []struct {
		name string
		kill *chaos.OriginKillPlan
	}{
		{"healthy", nil},
		{"kill-primary", &chaos.OriginKillPlan{Target: -1, KillAfterSec: 0.25, DownForSec: 0.5}},
	}

	header := []string{"cell", "sessions", "completed", "failovers", "brk skips",
		"stale", "hit ratio", "hits after restart", "shed", "invariants"}
	var rows [][]string
	for _, cell := range cells {
		cfg := base
		cfg.Edge = &chaos.EdgeTierConfig{
			Origins:            3,
			ManifestSoftTTLSec: 0.01,
			ManifestHardTTLSec: 300,
			Breaker:            dash.BreakerConfig{ConsecutiveFailures: 3, OpenSec: 0.5},
			OriginKill:         cell.kill,
			SessionStaggerSec:  1.0,
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("edge cell %s: %w", cell.name, err)
		}
		verdict := "ok"
		if errs := rep.Invariants(); len(errs) > 0 {
			verdict = fmt.Sprintf("%d VIOLATED (%v)", len(errs), errs[0])
		}
		es := rep.Edge
		rows = append(rows, []string{
			cell.name, fmt.Sprint(rep.Sessions), fmt.Sprint(rep.Completed),
			fmt.Sprint(es.Failovers), fmt.Sprint(es.BreakerSkips),
			fmt.Sprint(es.StaleServed), fmt.Sprintf("%.0f%%", 100*es.HitRatio()),
			fmt.Sprint(rep.EdgeHitsAfterRestart), fmt.Sprint(es.Shed), verdict,
		})
	}

	var sb strings.Builder
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n(3 origin replicas behind one edge; kill-primary cell kills the ring-primary "+
		"origin 0.25s in and restarts it 0.5s later; fault seed %d; sessions staggered over 1s so "+
		"manifests age past the 10ms soft TTL and serve stale while revalidating)\n", seed)
	return &Result{Text: sb.String()}, nil
}
