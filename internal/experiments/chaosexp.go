package experiments

import (
	"fmt"
	"strings"

	"cava/internal/chaos"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func init() {
	register("chaos", "robustness at scale: overload-protected server vs concurrent sessions × fault profiles", runChaos)
}

// runChaos sweeps the multi-session chaos harness across fault profiles and
// concurrency levels: N resilient clients share one shaped bottleneck against
// a fault-injected server behind admission control, and every cell is checked
// against the harness invariants (no livelock, bounded honest shedding, no
// goroutine leaks, graceful degradation). The single-client "robustness"
// experiment shows the fetch pipeline surviving faults; this one shows the
// *server* surviving clients.
func runChaos(opt Options) (*Result, error) {
	const seed = 7
	base := chaos.Config{
		Video: opt.cache().Generate(video.FFmpegConfig(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)),
		// One ample shared link: overload and faults do the damage, not
		// raw starvation.
		Trace:     trace.Constant("link40", 40e6, 1200, 1),
		Scheme:    sim.CAVA,
		Seed:      seed,
		TimeScale: 240,
		MaxChunks: 6,
	}
	profiles := []string{"none", "transient", "lossy"}
	concurrency := []int{4, 16}

	reps, err := chaos.Sweep(base, profiles, concurrency)
	if err != nil {
		return nil, err
	}

	header := []string{"profile", "sessions", "completed", "failed", "livelock",
		"shed", "shed seen", "breaker opens", "invariants"}
	var rows [][]string
	for _, rep := range reps {
		verdict := "ok"
		if errs := rep.Invariants(); len(errs) > 0 {
			verdict = fmt.Sprintf("%d VIOLATED (%v)", len(errs), errs[0])
		}
		rows = append(rows, []string{
			rep.Profile, fmt.Sprint(rep.Sessions),
			fmt.Sprint(rep.Completed), fmt.Sprint(rep.Failed), fmt.Sprint(rep.Livelocked),
			fmt.Sprint(rep.Admission.ShedTotal()), fmt.Sprint(rep.ObservedShed),
			fmt.Sprint(rep.Breaker.Opens), verdict,
		})
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n(real HTTP over one shared shaped link; admission bounded to half the "+
		"session count, fault seed %d; \"shed seen\" counts client-observed 503 + Retry-After)\n", seed)
	return &Result{Text: sb.String()}, nil
}
