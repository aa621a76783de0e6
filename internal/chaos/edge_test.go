package chaos

import (
	"testing"

	"cava/internal/chaos/leakcheck"
	"cava/internal/dash"
	"cava/internal/edge"
)

func TestRunEdgeConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Edge = &EdgeTierConfig{}
	cfg.Video = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an edge-tier config with no video")
	}
}

// TestEdgeChaosSoak is the edge tier's acceptance soak: 24 staggered
// sessions stream through the edge while the primary origin (of 3) is
// killed mid-run and restarted. The invariants: ≥ 99% of sessions complete
// via failover and stale serving, the goroutine count settles back, the
// failover and stale-served counters are nonzero, and cache hits resume
// after the restart.
func TestEdgeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run")
	}
	defer leakcheck.Check(t)()
	cfg := testConfig()
	cfg.Sessions = 24
	cfg.TimeScale = 240
	cfg.MaxChunks = 6
	cfg.Edge = &EdgeTierConfig{
		Origins: 3,
		// A tiny soft TTL so the staggered sessions' manifest requests age
		// past it and exercise stale-while-revalidate; the hard TTL stays
		// large so the outage window never refuses stale.
		ManifestSoftTTLSec: 0.01,
		ManifestHardTTLSec: 300,
		// A tight breaker so the dead origin is marked within the outage.
		Breaker: dash.BreakerConfig{ConsecutiveFailures: 3, OpenSec: 0.5},
		// Kill the primary a quarter second in — after the first sessions
		// warmed the cache, while most are mid-stream — and bring it back
		// while sessions are still running.
		OriginKill:        &OriginKillPlan{Target: -1, KillAfterSec: 0.25, DownForSec: 0.5},
		SessionStaggerSec: 1.0,
	}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	es := rep.Edge
	t.Logf("edge soak: %d/%d completed, kills %d, restarts %d, failovers %d, breaker skips %d, stale %d, hits %d (after restart %d), misses %d, coalesced %d, shed %d, wall %.1fs",
		rep.Completed, rep.Sessions, rep.OriginKills, rep.OriginRestarts,
		es.Failovers, es.BreakerSkips, es.StaleServed, es.Hits,
		rep.EdgeHitsAfterRestart, es.Misses, es.Coalesced, es.Shed, rep.WallSec)

	for _, e := range rep.Invariants() {
		t.Errorf("invariant violated: %v", e)
	}
	if rep.OriginKills != 1 || rep.OriginRestarts != 1 {
		t.Fatalf("controller ran %d kills / %d restarts, want 1 / 1", rep.OriginKills, rep.OriginRestarts)
	}
	if es.Failovers == 0 {
		t.Error("edge_origin_failovers stayed zero across an origin kill")
	}
	if es.StaleServed == 0 {
		t.Error("edge_stale_served stayed zero across staggered sessions")
	}
	if rep.EdgeHitsAfterRestart == 0 {
		t.Error("no cache hit after the origin restart; hit ratio did not recover")
	}
	if rep.LeakErr != nil {
		t.Errorf("goroutines did not return to baseline: %v", rep.LeakErr)
	}
	if es.HitRatio() <= 0 {
		t.Errorf("edge hit ratio = %.2f, want > 0 (hits %d, misses %d)",
			es.HitRatio(), es.Hits, es.Misses)
	}
}

// TestEdgeChaosCleanRun pins the no-fault edge path: every session
// completes, nothing sheds, nothing leaks, and the cache coalesces the
// concurrent demand for shared segments.
func TestEdgeChaosCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real sockets and sessions")
	}
	defer leakcheck.Check(t)()
	cfg := testConfig()
	cfg.Sessions = 6
	cfg.TimeScale = 240
	cfg.MaxChunks = 4
	cfg.Edge = &EdgeTierConfig{Origins: 2}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 6 || rep.Failed != 0 {
		t.Fatalf("clean edge run: %d completed / %d failed (results %+v)",
			rep.Completed, rep.Failed, rep.Results)
	}
	for _, e := range rep.Invariants() {
		t.Errorf("invariant violated: %v", e)
	}
	if shed := rep.Admission.ShedTotal(); shed != 0 {
		t.Errorf("clean edge run shed %d requests", shed)
	}
	if rep.Edge.Shed != 0 {
		t.Errorf("edge shed %d requests with healthy origins", rep.Edge.Shed)
	}
	if rep.Edge.Hits+rep.Edge.Coalesced == 0 {
		t.Error("6 sessions sharing one video produced no cache hit or coalesced fetch")
	}
}

// TestEdgeInvariantsCatchViolations exercises the edge-specific invariant
// arms on a synthetic report.
func TestEdgeInvariantsCatchViolations(t *testing.T) {
	rep := &Report{
		Sessions:       10,
		Completed:      8, // below the 99% bar
		OriginKills:    1,
		OriginRestarts: 1,
	}
	rep.Edge = &edge.Stats{}
	errs := rep.edgeInvariants()
	if len(errs) != 4 {
		t.Fatalf("got %d violations, want 4 (completion, failover, stale, recovery): %v",
			len(errs), errs)
	}
	// A Run-style report (no edge tier) adds none of them.
	if extra := (&Report{Sessions: 10}).edgeInvariants(); extra != nil {
		t.Errorf("edge invariants fired on a non-edge report: %v", extra)
	}
}
