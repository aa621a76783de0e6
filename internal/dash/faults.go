package dash

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"cava/internal/telemetry"
)

// faultConfig describes the failure behaviour of the testbed link/server,
// emulating the transient errors real CDN edges and cellular links exhibit
// (§6.8 runs over emulated LTE, where mid-session failures are the norm).
// Callers pick one of the named profiles (faultProfile); tests build
// custom schedules directly.
//
// Every decision is a pure function of (Seed, request path, attempt number
// for that path), so a fault schedule is exactly reproducible across runs
// and independent of request interleaving: retrying the same segment sees a
// fresh (but still deterministic) draw, and concurrent clients do not
// perturb each other's schedules.
//
// Only segment requests (/seg/...) are faulted; manifests and playlists
// pass untouched. Probabilities are per-request in [0, 1] and are
// evaluated in a fixed precedence order: outage window, connection reset,
// HTTP error, body truncation; latency and mid-body stalls compose with a
// successful response. The zero value injects nothing.
type faultConfig struct {
	// Seed drives every pseudo-random decision.
	Seed int64
	// ErrorProb is the probability of answering 503 Service Unavailable.
	ErrorProb float64
	// ResetProb is the probability of dropping the connection without a
	// response (the client observes EOF / connection reset).
	ResetProb float64
	// TruncateProb is the probability of declaring the full Content-Length
	// but sending only the first half of the body before closing.
	TruncateProb float64
	// LatencyProb and LatencySec inject a response-latency spike: the
	// response is delayed by LatencySec virtual seconds.
	LatencyProb float64
	LatencySec  float64
	// StallProb and StallSec freeze the body mid-transfer once, halfway
	// through, for StallSec virtual seconds (a slow segment, not an error).
	StallProb float64
	StallSec  float64
	// Outages are virtual-time windows (seconds since the injector's first
	// segment request) during which every segment request is answered 503.
	Outages []outageWindow
	// TimeScale converts wall time to virtual time for Outages, LatencySec
	// and StallSec; it must match the shaper/client scale (default 1).
	TimeScale float64
}

// outageWindow is a half-open virtual-time interval [StartSec, EndSec).
type outageWindow struct {
	StartSec, EndSec float64
}

// FaultStats counts injected events, for reporting and assertions.
type FaultStats struct {
	// Requests is the total number of requests seen (faulted or not).
	Requests int
	// Errors counts injected 503 responses (outside outage windows).
	Errors int
	// Resets counts dropped connections.
	Resets int
	// Truncations counts short bodies.
	Truncations int
	// Latencies and Stalls count injected delays.
	Latencies int
	Stalls    int
	// OutageRejections counts requests refused inside an outage window.
	OutageRejections int
}

// FaultInjector is an http.Handler middleware that applies one of the
// named fault profiles in front of an inner handler. It is safe for
// concurrent use.
type FaultInjector struct {
	cfg   faultConfig
	inner http.Handler
	clock Clock

	mu       sync.Mutex
	start    time.Time
	attempts map[string]uint64
	stats    FaultStats

	// rec, when set, receives a KindFault decision-trace event per
	// injected fault so server-side causes line up with client-side
	// retries in one timeline.
	rec     telemetry.Recorder
	session string
}

// NewFaultInjector wraps inner with the named fault profile (see
// FaultProfileNames) at the given seed and time scale, which must match
// the shaper's and the client's. The "none" profile passes everything
// through untouched.
func NewFaultInjector(profile string, seed int64, timeScale float64, inner http.Handler) (*FaultInjector, error) {
	cfg, err := faultProfile(profile, seed, timeScale)
	if err != nil {
		return nil, err
	}
	return newFaultInjector(cfg, inner), nil
}

// newFaultInjector wraps inner with an arbitrary schedule.
func newFaultInjector(cfg faultConfig, inner http.Handler) *FaultInjector {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	return &FaultInjector{cfg: cfg, inner: inner, clock: RealClock(), attempts: make(map[string]uint64)}
}

// OriginFaultSeed is the fault seed of origin replica i when every origin
// runs the same profile from one base seed: distinct, so the replicas fail
// independently, and reproducible from the base seed alone.
func OriginFaultSeed(seed int64, i int) int64 {
	return seed + int64(i)*101
}

// Active reports whether the injector's schedule injects any fault at all.
func (f *FaultInjector) Active() bool {
	c := &f.cfg
	return c.ErrorProb > 0 || c.ResetProb > 0 || c.TruncateProb > 0 ||
		c.LatencyProb > 0 || c.StallProb > 0 || len(c.Outages) > 0
}

// WithClock substitutes the injector's clock (tests use a FakeClock). Call
// before serving.
func (f *FaultInjector) WithClock(c Clock) *FaultInjector {
	f.clock = realClockOr(c)
	return f
}

// FaultInjectors is a serving tier's fault injection, one injector per
// origin. Its Stats and its series are sums over the injectors, so N
// origins expose the series one origin does: a registry takes each name
// once.
type FaultInjectors []*FaultInjector

// Stats sums the injectors' counters.
func (fs FaultInjectors) Stats() FaultStats {
	var sum FaultStats
	for _, f := range fs {
		s := f.Stats()
		sum.Requests += s.Requests
		sum.Errors += s.Errors
		sum.Resets += s.Resets
		sum.Truncations += s.Truncations
		sum.Latencies += s.Latencies
		sum.Stalls += s.Stalls
		sum.OutageRejections += s.OutageRejections
	}
	return sum
}

// SetMetrics exposes the summed Stats on reg (nil disables), one
// dash_faults_injected_total series per fault type.
func (fs FaultInjectors) SetMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("dash_faults_requests_total", "requests seen by the fault injector",
		func() uint64 { return uint64(fs.Stats().Requests) })
	for typ, field := range map[string]func(FaultStats) int{
		"outage":   func(s FaultStats) int { return s.OutageRejections },
		"reset":    func(s FaultStats) int { return s.Resets },
		"error":    func(s FaultStats) int { return s.Errors },
		"truncate": func(s FaultStats) int { return s.Truncations },
		"latency":  func(s FaultStats) int { return s.Latencies },
		"stall":    func(s FaultStats) int { return s.Stalls },
	} {
		reg.CounterFunc("dash_faults_injected_total", "faults injected by type",
			func() uint64 { return uint64(field(fs.Stats())) }, telemetry.Label{Name: "type", Value: typ})
	}
}

// SetRecorder attaches a decision-trace recorder: every injected fault is
// recorded as a KindFault event stamped with the injector's virtual clock
// and, for segment requests, the chunk and track concerned.
func (f *FaultInjector) SetRecorder(rec telemetry.Recorder, session string) {
	f.rec = rec
	f.session = session
}

// Stats returns a snapshot of the injected-event counters.
func (f *FaultInjector) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decision is the fault plan for one request.
type decision struct {
	outage   bool
	reset    bool
	httpErr  bool
	truncate bool
	latency  bool
	stall    bool
}

// draw derives a uniform [0,1) float from (seed, path, attempt, salt) via
// FNV-1a + a splitmix64 finalizer: cheap, stable across runs, and with no
// shared-state ordering dependence.
func draw(seed int64, path string, attempt uint64, salt uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", seed, path, attempt, salt)
	x := h.Sum64()
	// splitmix64 finalizer to decorrelate the FNV lanes.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// plan computes the request's fault decision and updates counters.
func (f *FaultInjector) plan(path string) decision {
	f.mu.Lock()
	now := f.clock.Now()
	if f.start.IsZero() {
		f.start = now
	}
	vt := now.Sub(f.start).Seconds() * f.cfg.TimeScale
	attempt := f.attempts[path]
	f.attempts[path] = attempt + 1
	f.stats.Requests++
	f.mu.Unlock()

	var d decision
	for _, w := range f.cfg.Outages {
		if vt >= w.StartSec && vt < w.EndSec {
			d.outage = true
		}
	}
	seed := f.cfg.Seed
	switch {
	case d.outage:
	case draw(seed, path, attempt, 1) < f.cfg.ResetProb:
		d.reset = true
	case draw(seed, path, attempt, 2) < f.cfg.ErrorProb:
		d.httpErr = true
	case draw(seed, path, attempt, 3) < f.cfg.TruncateProb:
		d.truncate = true
	}
	if !d.outage && !d.reset && !d.httpErr {
		d.latency = draw(seed, path, attempt, 4) < f.cfg.LatencyProb
		d.stall = draw(seed, path, attempt, 5) < f.cfg.StallProb
	}

	f.mu.Lock()
	switch {
	case d.outage:
		f.stats.OutageRejections++
	case d.reset:
		f.stats.Resets++
	case d.httpErr:
		f.stats.Errors++
	case d.truncate:
		f.stats.Truncations++
	}
	if d.latency {
		f.stats.Latencies++
	}
	if d.stall {
		f.stats.Stalls++
	}
	f.mu.Unlock()

	if f.rec != nil {
		for _, typ := range d.types() {
			track, index := -1, -1
			if t, i, err := parseSegmentPath(path); err == nil {
				track, index = t, i
			}
			f.rec.Record(telemetry.Event{
				Session: f.session, TimeSec: vt, Kind: telemetry.KindFault,
				Chunk: index, Level: track, PrevLevel: -1,
				Attempt: int(attempt), Detail: typ,
			})
		}
	}
	return d
}

// types lists the fault type names a decision will inject.
func (d decision) types() []string {
	var out []string
	if d.outage {
		out = append(out, "outage")
	}
	if d.reset {
		out = append(out, "reset")
	}
	if d.httpErr {
		out = append(out, "error")
	}
	if d.truncate {
		out = append(out, "truncate")
	}
	if d.latency {
		out = append(out, "latency")
	}
	if d.stall {
		out = append(out, "stall")
	}
	return out
}

// ServeHTTP implements http.Handler.
func (f *FaultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.Active() || !strings.HasPrefix(r.URL.Path, "/seg/") {
		f.inner.ServeHTTP(w, r)
		return
	}
	d := f.plan(r.URL.Path)
	switch {
	case d.outage:
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	case d.reset:
		// ErrAbortHandler makes the server drop the connection without a
		// response and without logging a stack trace.
		//lint:allow nopanic http.ErrAbortHandler is net/http's abort idiom
		panic(http.ErrAbortHandler)
	case d.httpErr:
		http.Error(w, "injected server error", http.StatusServiceUnavailable)
		return
	}
	if d.latency && f.cfg.LatencySec > 0 {
		f.clock.Sleep(Seconds(f.cfg.LatencySec / f.cfg.TimeScale))
	}
	out := http.ResponseWriter(w)
	if d.truncate || d.stall {
		out = &faultWriter{
			ResponseWriter: w,
			clock:          f.clock,
			truncate:       d.truncate,
			stall:          d.stall,
			stallWall:      Seconds(f.cfg.StallSec / f.cfg.TimeScale),
		}
	}
	f.inner.ServeHTTP(out, r)
}

// faultWriter applies body-level faults: it discovers the declared
// Content-Length at the first write, silently drops bytes past the
// truncation point (the server then closes the connection short of the
// declared length), and freezes once halfway through for the stall case.
type faultWriter struct {
	http.ResponseWriter
	clock     Clock
	truncate  bool
	stall     bool
	stallWall time.Duration

	declared int64 // from Content-Length; -1 when absent
	written  int64
	limit    int64 // bytes allowed through when truncating
	half     int64 // stall trigger point
	inited   bool
	stalled  bool
}

func (fw *faultWriter) init() {
	if fw.inited {
		return
	}
	fw.inited = true
	fw.declared = -1
	if cl := fw.Header().Get("Content-Length"); cl != "" {
		var n int64
		if _, err := fmt.Sscanf(cl, "%d", &n); err == nil {
			fw.declared = n
		}
	}
	if fw.declared > 0 {
		fw.half = fw.declared / 2
		fw.limit = max(fw.half, 1)
	} else {
		// No declared length: truncation cannot be detected by the client
		// anyway; pass one write through then cut, and stall immediately.
		fw.limit = 1
		fw.half = 0
	}
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	fw.init()
	if fw.stall && !fw.stalled && fw.written >= fw.half {
		fw.stalled = true
		fw.clock.Sleep(fw.stallWall)
	}
	if fw.truncate {
		remain := fw.limit - fw.written
		if remain <= 0 {
			// Report success so the inner handler keeps its invariants;
			// the bytes never reach the wire and the server closes the
			// connection short.
			fw.written += int64(len(p))
			return len(p), nil
		}
		if int64(len(p)) > remain {
			n, err := fw.ResponseWriter.Write(p[:remain])
			fw.written += int64(len(p))
			if err != nil {
				return n, err
			}
			return len(p), nil
		}
	}
	n, err := fw.ResponseWriter.Write(p)
	fw.written += int64(n)
	return n, err
}

// FaultProfileNames lists the built-in named fault profiles.
func FaultProfileNames() []string {
	return []string{"none", "transient", "lossy", "outage"}
}

// faultProfile resolves a named fault profile. Profiles model §6.8-style
// LTE conditions: "transient" is sporadic 5xx/truncation with latency
// spikes, "lossy" adds connection resets and mid-body stalls, "outage"
// is a scheduled 12-second (virtual) dead window on top of light errors.
func faultProfile(name string, seed int64, timeScale float64) (faultConfig, error) {
	base := faultConfig{Seed: seed, TimeScale: timeScale}
	switch name {
	case "none", "":
		return faultConfig{TimeScale: timeScale}, nil
	case "transient":
		base.ErrorProb = 0.12
		base.TruncateProb = 0.06
		base.LatencyProb = 0.10
		base.LatencySec = 0.3
		return base, nil
	case "lossy":
		base.ErrorProb = 0.08
		base.ResetProb = 0.08
		base.TruncateProb = 0.08
		base.StallProb = 0.05
		base.StallSec = 1
		return base, nil
	case "outage":
		base.ErrorProb = 0.02
		base.Outages = []outageWindow{{StartSec: 30, EndSec: 42}}
		return base, nil
	}
	return faultConfig{}, fmt.Errorf("dash: unknown fault profile %q (have %v)",
		name, FaultProfileNames())
}
