// Package telemetry is the repository's dependency-free instrumentation
// substrate: a concurrent registry of counters, gauges and fixed-bucket
// histograms with Prometheus text-format exposition, plus a structured
// per-session ABR decision trace shared by the simulator and the HTTP
// testbed (see trace.go).
//
// Design constraints, in priority order:
//
//  1. The increment path is atomic and allocation-free: metric handles are
//     resolved once (at wiring time) and then updated with plain atomic
//     operations, so instrumentation is safe on the hot paths the ROADMAP
//     wants to optimize.
//  2. Disabled telemetry is free. Every constructor and every update method
//     is nil-receiver-safe: code instruments unconditionally against
//     possibly-nil handles, and a nil *Registry hands out nil handles, so
//     an uninstrumented run performs only a nil check per update.
//  3. No dependencies. Exposition emits the Prometheus text format directly
//     (expose.go); nothing outside the standard library is imported.
//
// Count once. A component whose Stats snapshot already records an event
// does not mirror it into a handle: it registers CounterFunc/GaugeFunc
// readers over that snapshot, so /metrics and the experiments read one
// ledger. Handles are for components whose handle is their only record.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter ignores updates (disabled telemetry).
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (no-op on a nil receiver).
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits. The
// zero value is ready to use; a nil *Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta (CAS loop; no allocation).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are defined by
// ascending upper bounds; observations beyond the last bound land in the
// implicit +Inf bucket. Observe is atomic and allocation-free. A nil
// *Histogram ignores updates.
type Histogram struct {
	bounds  []float64 // ascending upper bounds (exclusive of +Inf)
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBuckets is a general-purpose latency bucket ladder in seconds.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket ladders are short (≤ ~20), and a scan avoids the
	// bounds-check and branch-misprediction overhead of binary search at
	// these sizes.
	i := len(h.bounds)
	for b, ub := range h.bounds {
		if v <= ub {
			i = b
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Label is one metric label pair.
type Label struct {
	Name, Value string
}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric instance (one label combination).
type entry struct {
	name   string
	help   string
	labels string // pre-rendered {k="v",...} or ""
	kind   kind

	c *Counter
	g *Gauge
	h *Histogram
	// counter and gauge are what exposition reads: the handle's Value
	// method, or the function passed to CounterFunc/GaugeFunc (fn).
	counter func() uint64
	gauge   func() float64
	fn      bool
}

// Registry is a concurrent collection of metrics. Lookup-or-create is
// mutex-guarded (wiring time); the handles it returns update lock-free.
// A nil *Registry is a valid disabled registry: every constructor returns
// nil, which the metric types accept as a no-op target.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// renderLabels builds the canonical `{k="v",...}` suffix (sorted by name)
// used both as part of the registry key and verbatim in exposition.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the Prometheus label-value escaping rules.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the entry for (name, labels), creating it with mk when
// absent. Re-registering a handle under an existing (name, labels) of the
// same kind returns the existing instance. Everything else panics, because
// it is a wiring bug, not a runtime condition: a new series whose name
// breaks the naming rules (see nameProblem), a kind mismatch, and any
// second registration involving a function form (fn), whose series has
// exactly one reader.
func (r *Registry) lookup(name, help string, labels []Label, k kind, fn bool, mk func(*entry)) *entry {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	var bad string
	switch {
	case !ok:
		bad = nameProblem(name, k)
	case e.kind != k || fn || e.fn:
		bad = fmt.Sprintf("%s re-registered as %s, func %v (was %s, func %v)", key, k, fn, e.kind, e.fn)
	}
	if bad != "" {
		//lint:allow nopanic a misnamed series or a kind mismatch on re-registration is a programmer error
		panic("telemetry: " + bad)
	}
	if ok {
		return e
	}
	e = &entry{name: name, help: help, labels: renderLabels(labels), kind: k, fn: fn}
	mk(e)
	r.entries[key] = e
	return e
}

// snakeCase matches Prometheus snake_case: lowercase words joined by
// single underscores.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// histogramUnits are the unit suffixes a histogram name ends in.
var histogramUnits = []string{"_seconds", "_sec", "_ms", "_bytes", "_bits"}

// bareQuantities are the words that leave a gauge's unit unstated when
// they end its name (abrlint's units analyzer asks a Go identifier ending
// in one of them for a unit suffix).
var bareQuantities = map[string]bool{
	"bitrate": true, "size": true, "sizes": true,
	"dur": true, "duration": true, "delay": true,
	"interval": true, "throughput": true, "bandwidth": true,
	"latency": true, "timeout": true,
}

// nameProblem says why name cannot name a series of kind k, or returns ""
// when it can: the name is snake_case, a counter's ends in _total, a
// gauge's ends neither in _total nor in a bare quantity, and a
// histogram's ends in a unit. /metrics exposes names verbatim, and
// dashboards key on them.
func nameProblem(name string, k kind) string {
	if !snakeCase.MatchString(name) {
		return fmt.Sprintf("%s name %q is not snake_case", k, name)
	}
	switch k {
	case kindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Sprintf("counter name %q must end in _total", name)
		}
	case kindGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Sprintf("gauge name %q must not end in _total; a gauge is a level, not a count", name)
		}
		if last := name[strings.LastIndexByte(name, '_')+1:]; bareQuantities[last] {
			return fmt.Sprintf("gauge name %q ends in the bare quantity %q; spell out the unit (_bytes, _seconds, ...)", name, last)
		}
	case kindHistogram:
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				return ""
			}
		}
		return fmt.Sprintf("histogram name %q must end in a unit (%s)", name, strings.Join(histogramUnits, ", "))
	}
	return ""
}

// Counter returns the counter registered under name (creating it if
// needed). A nil registry returns nil, which is safe to update.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, help, labels, kindCounter, false, func(e *entry) {
		e.c = &Counter{}
		e.counter = e.c.Value
	})
	return e.c
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, help, labels, kindGauge, false, func(e *entry) {
		e.g = &Gauge{}
		e.gauge = e.g.Value
	})
	return e.g
}

// CounterFunc registers a counter whose value fn returns at scrape time,
// for a component whose own Stats already counts the events. fn must be
// monotone, safe for concurrent use and free of side effects. The series
// is exposed exactly like a handle-backed counter; registering its (name,
// labels) again, in either form, panics. A nil registry ignores the call.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, labels, kindCounter, true, func(e *entry) { e.counter = fn })
}

// GaugeFunc registers a gauge whose value fn returns at scrape time, under
// the same rules as CounterFunc (except monotonicity).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, labels, kindGauge, true, func(e *entry) { e.gauge = fn })
}

// Histogram returns the histogram registered under name with the given
// bucket upper bounds (nil selects DefBuckets). Bounds are fixed at first
// registration; later registrations reuse the existing ladder.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	e := r.lookup(name, help, labels, kindHistogram, false, func(e *entry) { e.h = newHistogram(bounds) })
	return e.h
}

// snapshot returns the entries sorted by (name, labels) for exposition.
func (r *Registry) snapshot() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
