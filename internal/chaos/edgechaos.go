package chaos

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cava/internal/dash"
	"cava/internal/edge"
)

// OriginKillPlan schedules the origin-lifecycle fault: one origin is killed
// mid-run (its HTTP server and listener close, aborting in-flight
// responses) and optionally restarted on the same address, exercising the
// edge tier's failover, breaker, and cache-recovery paths.
type OriginKillPlan struct {
	// Target is the origin index to kill; -1 targets the primary origin for
	// the run's video (the one whose death hurts the most).
	Target int
	// KillAfterSec is when the origin dies, in wall seconds after run start.
	KillAfterSec float64
	// DownForSec is how long it stays down before restarting on the same
	// address; <= 0 means it never comes back.
	DownForSec float64
}

// EdgeTierConfig puts the edge/CDN tier between the chaos clients and a set
// of origin replicas. Clients speak to the edge through the shared shaped
// bottleneck; the edge fans out to unshaped local origins. The edge's
// segment cache and per-attempt timeout keep the edge.Config defaults.
type EdgeTierConfig struct {
	// Origins is the number of origin replicas (default 3).
	Origins int
	// ManifestSoftTTLSec / ManifestHardTTLSec tune the edge's
	// stale-while-revalidate window (defaults 1 and 120 wall seconds; the
	// soak sets a tiny soft TTL so staggered sessions exercise stale
	// serving).
	ManifestSoftTTLSec float64
	ManifestHardTTLSec float64
	// Breaker is the per-origin breaker policy (zero value = defaults).
	Breaker dash.BreakerConfig
	// OriginKill, when non-nil, schedules the origin-lifecycle fault.
	OriginKill *OriginKillPlan
	// SessionStaggerSec spreads session starts over a wall-clock window
	// (default 0: all at once), so manifest requests arrive at distinct
	// cache ages.
	SessionStaggerSec float64
}

// originInstance is one restartable origin replica: a fixed address whose
// HTTP server can be killed and brought back, while the edge keeps the
// address in its ring throughout.
type originInstance struct {
	addr    string
	handler http.Handler

	mu   sync.Mutex
	hsrv *http.Server
}

// startOrigin binds a fresh loopback port and starts serving.
func startOrigin(handler http.Handler) (*originInstance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &originInstance{addr: ln.Addr().String(), handler: handler}
	o.serve(ln)
	return o, nil
}

// serve runs an HTTP server on ln until killed.
func (o *originInstance) serve(ln net.Listener) {
	hsrv := dash.NewHTTPServer(o.handler)
	o.mu.Lock()
	o.hsrv = hsrv
	o.mu.Unlock()
	go func() { _ = hsrv.Serve(ln) }()
}

// kill closes the origin's server and every connection it holds.
func (o *originInstance) kill() {
	o.mu.Lock()
	hsrv := o.hsrv
	o.hsrv = nil
	o.mu.Unlock()
	if hsrv != nil {
		_ = hsrv.Close()
	}
}

// restart rebinds the SAME address, so the edge's ring entry points at the
// revived replica. It fails if the port was reclaimed in the down window.
func (o *originInstance) restart() error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("chaos: restarting origin %s: %w", o.addr, err)
	}
	o.serve(ln)
	return nil
}

// newEdgeBackend starts cfg.Edge.Origins origin replicas — each the full
// single-video server behind its own fault injector (distinct seeds, same
// profile) on its own unshaped loopback listener — and the edge in front.
func newEdgeBackend(cfg Config) (*backend, error) {
	b := &backend{}
	urls := make([]string, cfg.Edge.Origins)
	for i := range urls {
		faultCfg, err := dash.FaultProfile(cfg.FaultProfile, cfg.Seed+int64(i)*101, cfg.TimeScale)
		if err != nil {
			b.close()
			return nil, err
		}
		o, err := startOrigin(dash.NewFaultInjector(faultCfg, dash.NewServer(cfg.Video).Handler()))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("chaos: origin listen: %w", err)
		}
		b.origins = append(b.origins, o)
		urls[i] = "http://" + o.addr
	}
	et := cfg.Edge
	eg, err := edge.New(edge.Config{
		Origins:            urls,
		VideoID:            cfg.Video.ID(),
		ManifestSoftTTLSec: et.ManifestSoftTTLSec,
		ManifestHardTTLSec: et.ManifestHardTTLSec,
		Breaker:            et.Breaker,
		JitterSeed:         cfg.Seed,
	})
	if err != nil {
		b.close()
		return nil, err
	}
	b.edge, b.handler = eg, eg.Handler()
	return b, nil
}

// originKiller is the origin-lifecycle controller's outcome, readable once
// wg is done.
type originKiller struct {
	wg              sync.WaitGroup
	kills, restarts int
	hitsAtRestart   uint64
	err             error
}

// startKiller runs plan against the backend's origins: kill the target
// mid-run, bring it back after the down window, and snapshot the edge's
// hit counter at restart so the report can show the cache recovering. A
// nil plan does nothing.
func (b *backend) startKiller(plan *OriginKillPlan) *originKiller {
	k := &originKiller{}
	if plan == nil {
		return k
	}
	target := plan.Target
	if target < 0 || target >= len(b.origins) {
		target = b.edge.OriginOrder("")[0] // the primary takes the hit
	}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		time.Sleep(dash.Seconds(plan.KillAfterSec))
		b.origins[target].kill()
		k.kills++
		if plan.DownForSec <= 0 {
			return
		}
		time.Sleep(dash.Seconds(plan.DownForSec))
		if err := b.origins[target].restart(); err != nil {
			k.err = err
			return
		}
		k.restarts++
		k.hitsAtRestart = b.edge.Stats().Hits
	}()
	return k
}

// edgeInvariants extends Invariants for edge-tier runs: sessions must ride
// out the origin kill through failover and stale serving, and the cache
// must warm back up after the restart.
func (r *Report) edgeInvariants() []error {
	var out []error
	if r.Edge == nil {
		return nil
	}
	// ≥ 99% of sessions complete through the edge despite the origin kill.
	if r.Completed*100 < r.Sessions*99 {
		out = append(out, fmt.Errorf("chaos: only %d of %d sessions completed through the edge",
			r.Completed, r.Sessions))
	}
	if r.OriginKills > 0 && r.Edge.Failovers+r.Edge.BreakerSkips == 0 {
		out = append(out, errors.New("chaos: origin was killed but the edge never failed over"))
	}
	if r.OriginKills > 0 && r.Sessions > 1 && r.Edge.StaleServed == 0 {
		out = append(out, errors.New("chaos: no manifest was served stale while revalidating"))
	}
	if r.OriginRestarts > 0 && r.EdgeHitsAfterRestart == 0 {
		out = append(out, errors.New("chaos: cache hits did not resume after the origin restart"))
	}
	return out
}
