package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 16 {
		t.Fatalf("sum = %v, want 16", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="2"} 3`,
		`lat_seconds_bucket{le="5"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 16`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestNilRegistryAndHandlesAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil handles must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, want empty", buf.String())
	}
	var ring *Ring
	ring.Record(Event{Kind: KindDecide})
	if ring.Len() != 0 || ring.Events() != nil {
		t.Fatalf("nil ring must discard")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m_total", "")
}

// TestRegistryNamingRules pins the names a registry refuses when it
// creates a series: each bad name panics at registration, each good one
// registers and is exposed.
func TestRegistryNamingRules(t *testing.T) {
	counter := func(r *Registry, name string) { r.Counter(name, "") }
	gauge := func(r *Registry, name string) { r.Gauge(name, "") }
	histogram := func(r *Registry, name string) { r.Histogram(name, "", nil) }
	counterFunc := func(r *Registry, name string) { r.CounterFunc(name, "", func() uint64 { return 0 }) }
	gaugeFunc := func(r *Registry, name string) { r.GaugeFunc(name, "", func() float64 { return 0 }) }
	for _, c := range []struct {
		register func(*Registry, string)
		name     string
		ok       bool
	}{
		{counter, "requests_total", true},
		{gauge, "queue_depth", true},
		{histogram, "fetch_seconds", true},
		{counterFunc, "hits_total", true},
		{gaugeFunc, "cache_bytes", true},
		{counter, "requests", false},       // no _total
		{counter, "Bad_Case_total", false}, // not snake_case
		{gauge, "queue_total", false},      // _total on a gauge
		{gauge, "fetch_latency", false},    // bare quantity
		{histogram, "fetch_time", false},   // no unit
		{counterFunc, "hits", false},
		{gaugeFunc, "hits_total", false},
		{gaugeFunc, "cache_size", false},
		{counter, "legacy", false},
		{counter, "bare", false},
	} {
		r := NewRegistry()
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c.register(r, c.name)
			return false
		}()
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		exposed := strings.Contains(buf.String(), "# TYPE "+c.name+" ")
		if panicked == c.ok || exposed != c.ok {
			t.Errorf("%q: panicked %v, exposed %v; want the name accepted = %v", c.name, panicked, exposed, c.ok)
		}
	}
}

// TestFuncFormsExposeLikeHandles pins CounterFunc/GaugeFunc: read at
// scrape time, rendered byte for byte like handle-backed series.
func TestFuncFormsExposeLikeHandles(t *testing.T) {
	render := func(r *Registry) string {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	code := Label{Name: "code", Value: "503"}
	handles := NewRegistry()
	handles.Counter("app_requests_total", "total requests", code).Add(7)
	handles.Gauge("app_queue_depth", "queue depth").Set(2.5)

	var n uint64
	funcs := NewRegistry()
	funcs.CounterFunc("app_requests_total", "total requests", func() uint64 { return n }, code)
	funcs.GaugeFunc("app_queue_depth", "queue depth", func() float64 { return 2.5 })
	n = 7 // read at scrape time, not at registration
	if got, want := render(funcs), render(handles); got != want {
		t.Errorf("func-backed exposition:\n%s\nwant:\n%s", got, want)
	}

	var nilReg *Registry
	nilReg.CounterFunc("x_total", "", func() uint64 { return 1 })
	nilReg.GaugeFunc("y", "", func() float64 { return 1 })
	if render(nilReg) != "" {
		t.Error("nil registry exposed a func-backed series")
	}
}

// TestFuncFormConflictsPanic pins that a function-backed series has one
// reader: registering its name and labels again in either form panics,
// instead of handing out a handle nobody exposes.
func TestFuncFormConflictsPanic(t *testing.T) {
	zero := func() uint64 { return 0 }
	for name, register := range map[string]func(r *Registry){
		"handle then func": func(r *Registry) { r.Counter("m_total", ""); r.CounterFunc("m_total", "", zero) },
		"func then handle": func(r *Registry) { r.CounterFunc("m_total", "", zero); r.Counter("m_total", "") },
		"func twice":       func(r *Registry) { r.CounterFunc("m_total", "", zero); r.CounterFunc("m_total", "", zero) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "shared")
			h := r.Histogram("conc_seconds", "shared", []float64{1})
			g := r.Gauge("conc_gauge", "shared", Label{Name: "w", Value: strconv.Itoa(w)})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 3))
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("conc_seconds", "shared", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// parsePrometheus is a minimal exposition-format parser: it checks comment
// structure and returns sample name{labels} -> value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: bad type %q", ln+1, parts[3])
				}
				typed[parts[2]] = true
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[family] {
			t.Fatalf("line %d: sample %q precedes its TYPE header", ln+1, name)
		}
		samples[key] = f
	}
	return samples
}

func TestPrometheusExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "total requests").Add(7)
	r.Counter("app_requests_total", "total requests", Label{Name: "code", Value: "503"}).Add(2)
	r.Gauge("app_queue_depth", "bytes waiting\nfor the shaper").Set(12.5)
	r.Histogram("app_fetch_seconds", "fetch latency", []float64{0.1, 1}).Observe(0.05)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	samples := parsePrometheus(t, rec.Body.String())
	for key, want := range map[string]float64{
		"app_requests_total":                  7,
		`app_requests_total{code="503"}`:      2,
		"app_queue_depth":                     12.5,
		`app_fetch_seconds_bucket{le="0.1"}`:  1,
		`app_fetch_seconds_bucket{le="+Inf"}`: 1,
		"app_fetch_seconds_count":             1,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %q = %v (present=%v), want %v", key, got, ok, want)
		}
	}
}

func TestRingEvictionAndOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Chunk: i, Kind: KindDecide})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Chunk != 6+i {
			t.Fatalf("event %d chunk = %d, want %d", i, ev.Chunk, 6+i)
		}
		if ev.Seq != uint64(7+i) {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, 7+i)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Session: "s", Seq: 1, TimeSec: 0.5, Kind: KindDecide, Chunk: 0, Level: 2,
			PrevLevel: -1, BufferSec: 3, EstBps: 2e6, TargetSec: 60, U: 1.1,
			PTerm: 0.9, ITerm: 0.01, Alpha: 1.5, Eta: 5, Scores: []float64{3, 1, 2}},
		{Session: "s", Seq: 2, TimeSec: 1.5, Kind: KindRetry, Chunk: 0, Level: 2,
			Attempt: 1, Detail: "status 503"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("jsonl has %d lines, want %d", got, len(in))
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(in)
	b, _ := json.Marshal(out)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip mismatch:\n%s\n%s", a, b)
	}
}

// TestZeroAllocUpdates is the allocation assertion guarding the zero-alloc
// counter path (wired into `make check` via the telemetry bench smoke).
func TestZeroAllocUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_seconds", "", nil)
	var nilC *Counter
	var nilH *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(0.5)
		h.Observe(0.42)
		nilC.Inc()
		nilH.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("metric update path allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkTelemetryCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 17)
	}
}

func BenchmarkTelemetryExposition(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.Counter(fmt.Sprintf("m%02d_total", i), "bench metric").Add(uint64(i))
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WriteText(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
