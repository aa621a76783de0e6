// Package chaos is the multi-session robustness harness: it launches N
// concurrent resilient streaming clients against a fault-injected,
// overload-protected testbed server sharing one trace-shaped bottleneck
// link — the many-players-one-link regime PANDA studies — and checks
// system-level invariants after each run. With Config.Edge set, the
// server is replaced by an edge tier in front of origin replicas, one of
// which can be killed mid-run. The invariants:
//
//   - every session terminates (no livelock): a session that exceeds its
//     wall-clock budget is counted as livelocked, and any livelock fails
//     the invariant check;
//   - load shedding is bounded and honest: the admission layer sheds at
//     most a budget proportional to the session count, and ≥ 99% of shed
//     requests are observed client-side as 503 + Retry-After;
//   - nothing leaks: the process goroutine count returns to its
//     pre-harness baseline once the server and clients are torn down;
//   - degradation is graceful: admitted sessions complete with bounded
//     chunk loss instead of collapsing, and rejected sessions fail fast.
//
// Every run is seeded: the server's fault schedule and each client's
// retry jitter derive from Config.Seed, so a failing configuration
// replays exactly. (Goroutine scheduling still interleaves requests
// differently run to run; the *fault decisions per request* do not
// change, which is what makes failures attributable.)
package chaos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cava/internal/abr"
	"cava/internal/chaos/leakcheck"
	"cava/internal/dash"
	"cava/internal/edge"
	"cava/internal/trace"
	"cava/internal/video"
)

// Config describes one chaos run. Video, Trace and Scheme are required;
// zero values elsewhere select the defaults documented per field.
type Config struct {
	// Video is the title every session streams.
	Video *video.Video
	// Trace shapes the shared bottleneck link all sessions contend on.
	Trace *trace.Trace
	// Scheme is the adaptation algorithm every session runs.
	Scheme abr.Scheme
	// Sessions is the number of concurrent clients (default 8).
	Sessions int
	// FaultProfile is the named server-side fault profile (default "none";
	// see dash.FaultProfileNames).
	FaultProfile string
	// Seed drives the fault schedule and the per-session retry jitter
	// (session i uses Seed+i).
	Seed int64
	// TimeScale compresses time (default 120).
	TimeScale float64
	// MaxChunks bounds each session's length in segments (default 8).
	MaxChunks int
	// Protection configures the front end's overload protection; nil uses
	// dash.DefaultProtection admitting half the session count with a 0.1 s
	// queue timeout (so a one-server run exercises shedding), or, with
	// Edge set, every session with a 0.5 s timeout (the quantity under test
	// is completion through failover, not shedding).
	Protection *dash.ProtectionConfig
	// SessionWallTimeoutSec bounds each session in wall seconds; a session
	// still running at the bound is cancelled and counted as livelocked
	// (default 60).
	SessionWallTimeoutSec float64
	// SettleWallTimeoutSec bounds the post-run goroutine drain wait
	// (default 5).
	SettleWallTimeoutSec float64
	// Edge, when non-nil, puts the edge/CDN tier between the clients and a
	// set of fault-injected origin replicas in place of the one server.
	Edge *EdgeTierConfig
}

// withDefaults validates the config and fills defaulted fields.
func (c Config) withDefaults() (Config, error) {
	if c.Video == nil || c.Trace == nil || c.Scheme.New == nil {
		return c, errors.New("chaos: Config needs Video, Trace and Scheme")
	}
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.FaultProfile == "" {
		c.FaultProfile = "none"
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 120
	}
	if c.MaxChunks <= 0 {
		c.MaxChunks = 8
	}
	if c.Protection == nil {
		p := dash.DefaultProtection(max(1, c.Sessions/2))
		p.QueueTimeoutSec = 0.1
		if c.Edge != nil {
			p = dash.DefaultProtection(c.Sessions)
			p.QueueTimeoutSec = 0.5
		}
		p.SessionIdleSec = 300 // no slot recycling inside one short run
		c.Protection = &p
	}
	if c.Edge != nil && c.Edge.Origins <= 0 {
		et := *c.Edge
		et.Origins = 3
		c.Edge = &et
	}
	if c.SessionWallTimeoutSec <= 0 {
		c.SessionWallTimeoutSec = 60
	}
	if c.SettleWallTimeoutSec <= 0 {
		c.SettleWallTimeoutSec = 5
	}
	return c, nil
}

// SessionResult is one client session's outcome.
type SessionResult struct {
	// ID is the session identity ("chaos-03").
	ID string
	// Err is the terminal error (nil for a completed session).
	Err error
	// Livelocked reports the session hit its wall-clock budget instead of
	// terminating on its own.
	Livelocked bool
	// Chunks counts delivered chunk records (skips included).
	Chunks int
	// SkippedChunks counts segments abandoned after exhausting retries.
	SkippedChunks int
	// Retries counts failed attempts that were retried.
	Retries int
	// RebufferSec is the session's total stall time in virtual seconds.
	RebufferSec float64
	// DataMB is the delivered payload in megabytes.
	DataMB float64
}

// Completed reports whether the session finished its stream.
func (s SessionResult) Completed() bool { return s.Err == nil }

// Report aggregates one chaos run.
type Report struct {
	// Profile and Sessions echo the configuration axis values.
	Profile  string
	Sessions int
	// Results holds the per-session outcomes, ordered by session index.
	Results []SessionResult
	// Completed, Failed and Livelocked partition the sessions (livelocked
	// sessions are also failed).
	Completed  int
	Failed     int
	Livelocked int
	// Admission and Breaker snapshot the protection layer's counters.
	Admission dash.AdmissionStats
	Breaker   dash.BreakerStats
	// Faults snapshots the one server's fault injector (zero with an edge
	// tier, where each origin injects its own).
	Faults dash.FaultStats
	// Observed503 counts 503 responses seen client-side; ObservedShed is
	// the subset carrying Retry-After (i.e. honest load shedding, as
	// opposed to injected faults).
	Observed503  int
	ObservedShed int
	// ShedBudget is the run's bound on acceptable shedding.
	ShedBudget int
	// GoroutinesBaseline and GoroutinesAfter bracket the run; LeakErr is
	// non-nil when the count failed to settle back.
	GoroutinesBaseline int
	GoroutinesAfter    int
	LeakErr            error
	// WallSec is the run's wall-clock duration.
	WallSec float64
	// Edge snapshots the edge tier's counters (nil without an edge tier).
	Edge *edge.Stats
	// OriginKills and OriginRestarts count the origin-lifecycle controller's
	// actions; EdgeHitsAfterRestart counts cache hits accrued after the
	// killed origin came back (the cache-recovery signal).
	OriginKills          int
	OriginRestarts       int
	EdgeHitsAfterRestart uint64
}

// countingTransport counts 503 responses (and the Retry-After subset)
// observed by the clients, distinguishing honest shedding from injected
// faults on the wire.
type countingTransport struct {
	inner http.RoundTripper

	mu       sync.Mutex
	n503     int
	nShed503 int
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		t.mu.Lock()
		t.n503++
		if resp.Header.Get("Retry-After") != "" {
			t.nShed503++
		}
		t.mu.Unlock()
	}
	return resp, err
}

func (t *countingTransport) counts() (n503, nShed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n503, t.nShed503
}

// backend is the system under test behind the shaped, protected front
// end: one fault-injected server, or fault-injected origin replicas behind
// an edge (Config.Edge).
type backend struct {
	handler  http.Handler
	injector *dash.FaultInjector // the one server's; nil behind an edge
	edge     *edge.Edge
	origins  []*originInstance
}

// newBackend builds the backend cfg selects.
func newBackend(cfg Config) (*backend, error) {
	if cfg.Edge != nil {
		return newEdgeBackend(cfg)
	}
	faultCfg, err := dash.FaultProfile(cfg.FaultProfile, cfg.Seed, cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	injector := dash.NewFaultInjector(faultCfg, dash.NewServer(cfg.Video).Handler())
	return &backend{handler: injector, injector: injector}, nil
}

// close drains the edge's background refreshers and kills every origin.
func (b *backend) close() {
	if b.edge != nil {
		b.edge.Close()
	}
	for _, o := range b.origins {
		o.kill()
	}
}

// Run executes one chaos run and returns its report. An error means the
// harness itself could not run (bad config, no listener, a killed origin
// that could not rebind); session-level failures land in the report, not
// the error.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	baseline := leakcheck.Snapshot()
	start := time.Now()

	b, err := newBackend(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	protection := dash.Protect(*cfg.Protection, b.handler)
	hsrv := dash.NewHTTPServer(protection.Handler())
	shaped := dash.NewShapedListener(ln, dash.NewShaper(cfg.Trace, cfg.TimeScale))
	go func() { _ = hsrv.Serve(shaped) }()

	// One shared transport: sessions share the loopback the way real
	// players share an edge, and one counter sees every response.
	transport := &countingTransport{inner: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		ResponseHeaderTimeout: 30 * time.Second,
		MaxIdleConnsPerHost:   cfg.Sessions,
	}}
	httpClient := &http.Client{Timeout: 5 * time.Minute, Transport: transport}

	var kill *OriginKillPlan
	staggerSec := 0.0
	if cfg.Edge != nil {
		kill, staggerSec = cfg.Edge.OriginKill, cfg.Edge.SessionStaggerSec
	}
	killer := b.startKiller(kill)

	results := make([]SessionResult, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if staggerSec > 0 && cfg.Sessions > 1 {
				time.Sleep(dash.Seconds(staggerSec * float64(i) / float64(cfg.Sessions)))
			}
			results[i] = runSession(cfg, i, "http://"+ln.Addr().String(), httpClient)
		}(i)
	}
	wg.Wait()
	killer.wg.Wait()

	rep := &Report{
		Profile:            cfg.FaultProfile,
		Sessions:           cfg.Sessions,
		Results:            results,
		Admission:          protection.AdmissionStats(),
		GoroutinesBaseline: baseline.Count(),
		ShedBudget:         shedBudget(cfg),
		OriginKills:        killer.kills,
		OriginRestarts:     killer.restarts,
	}
	if b.injector != nil {
		rep.Faults = b.injector.Stats()
	}
	if br := protection.Breaker(); br != nil {
		rep.Breaker = br.Stats()
	}
	rep.Observed503, rep.ObservedShed = transport.counts()
	for _, r := range results {
		switch {
		case r.Completed():
			rep.Completed++
		case r.Livelocked:
			rep.Livelocked++
			rep.Failed++
		default:
			rep.Failed++
		}
	}

	// Teardown order matters for the leak check: stop accepting client
	// traffic, drain any request goroutine still parked in the admission
	// queue, snapshot the edge, drain its background refreshers and drop
	// the origins, then close idle connections before requiring the
	// baseline back.
	_ = hsrv.Close()
	protection.Close()
	if b.edge != nil {
		es := b.edge.Stats()
		rep.Edge = &es
		if killer.restarts > 0 && es.Hits > killer.hitsAtRestart {
			rep.EdgeHitsAfterRestart = es.Hits - killer.hitsAtRestart
		}
	}
	b.close()
	httpClient.CloseIdleConnections()
	if killer.err != nil {
		// A failed rebind leaves the run unable to test recovery; that is a
		// harness failure, not a system-under-test finding.
		return nil, killer.err
	}
	rep.LeakErr = baseline.Settle(dash.Seconds(cfg.SettleWallTimeoutSec))
	rep.GoroutinesAfter = leakcheck.Snapshot().Count()
	rep.WallSec = time.Since(start).Seconds()
	return rep, nil
}

// runSession executes one client session against the harness server.
func runSession(cfg Config, i int, baseURL string, httpClient *http.Client) SessionResult {
	id := fmt.Sprintf("chaos-%02d", i)
	out := SessionResult{ID: id}

	client, err := dash.NewClient(dash.ClientConfig{
		BaseURL:      baseURL,
		HTTPClient:   httpClient,
		NewAlgorithm: cfg.Scheme.New,
		TimeScale:    cfg.TimeScale,
		MaxChunks:    cfg.MaxChunks,
		Resilient:    true,
		JitterSeed:   cfg.Seed + int64(i),
		SessionID:    id,
	})
	if err != nil {
		out.Err = err
		return out
	}

	ctx, cancel := context.WithTimeout(context.Background(), dash.Seconds(cfg.SessionWallTimeoutSec))
	defer cancel()
	res, err := client.Run(ctx)
	if err != nil {
		out.Err = err
		out.Livelocked = errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded)
		return out
	}
	out.Chunks = len(res.Chunks)
	out.SkippedChunks = res.SkippedChunks
	out.Retries = res.TotalRetries
	out.RebufferSec = res.TotalRebufferSec
	out.DataMB = res.TotalBits / 8 / 1e6
	return out
}

// shedBudget bounds acceptable shedding: each session may be refused on
// every manifest attempt (one JSON request per resilient attempt) plus one
// round of slack — anything past that means the server is amplifying load
// instead of shedding it.
func shedBudget(cfg Config) int {
	attempts := dash.MaxRetries + 1
	return cfg.Sessions * (attempts + 1)
}

// Invariants checks the report against the harness's robustness
// invariants and returns every violation (empty means the run passed).
func (r *Report) Invariants() []error {
	var out []error
	if r.Livelocked > 0 {
		out = append(out, fmt.Errorf("chaos: %d of %d sessions livelocked", r.Livelocked, r.Sessions))
	}
	if shed := r.Admission.ShedTotal(); shed > r.ShedBudget {
		out = append(out, fmt.Errorf("chaos: %d requests shed, budget %d", shed, r.ShedBudget))
	}
	// Honest shedding: ≥ 99% of server-side sheds observed client-side as
	// 503 + Retry-After (integer form of ObservedShed/ShedTotal ≥ 0.99).
	if shed := r.Admission.ShedTotal(); shed > 0 && r.ObservedShed*100 < shed*99 {
		out = append(out, fmt.Errorf("chaos: only %d of %d shed requests carried 503 + Retry-After",
			r.ObservedShed, shed))
	}
	if r.LeakErr != nil {
		out = append(out, fmt.Errorf("chaos: goroutines did not settle: %w", r.LeakErr))
	}
	if r.Completed == 0 {
		out = append(out, errors.New("chaos: no session completed"))
	}
	for _, s := range r.Results {
		if s.Completed() && s.Chunks > 0 && s.SkippedChunks*2 > s.Chunks {
			out = append(out, fmt.Errorf("chaos: session %s collapsed: %d of %d chunks skipped",
				s.ID, s.SkippedChunks, s.Chunks))
		}
	}
	out = append(out, r.edgeInvariants()...)
	return out
}

// Sweep runs the harness across fault profiles × session counts, the
// concurrency axis the single-client robustness experiment lacks.
func Sweep(base Config, profiles []string, sessionCounts []int) ([]*Report, error) {
	var out []*Report
	for _, p := range profiles {
		for _, n := range sessionCounts {
			c := base
			c.FaultProfile = p
			c.Sessions = n
			c.Protection = nil // re-derive the bound from the session count
			rep, err := Run(c)
			if err != nil {
				return nil, fmt.Errorf("chaos: sweep cell %s×%d: %w", p, n, err)
			}
			out = append(out, rep)
		}
	}
	return out, nil
}
