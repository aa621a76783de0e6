// Command bench is the reproduction's one benchmark. It runs five
// workloads through the public APIs of the simulator (sim.Run), the fleet
// engine (fleet.New, Engine.Run) and the edge tier (edge.New over
// dash.Server origins), checks their outputs, and prints every metric as
// "workload metric value unit" followed by one JSON result line.
//
//	bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --out base.jsonl
//	bash bench/run.sh -compare base.jsonl head.jsonl
//
// An untraced run (--trace 0) repeats fresh reps of the workload, each in
// its own child process, for --seconds and reports the end-to-end metrics.
// A traced run (--trace 1) reports the per-layer metrics instead: a layer
// phase of micro-timings and memory attribution, plus one untraced and one
// traced rep whose spans go to bench/out/<workload>.spans.jsonl. See
// README.md for the workloads, the metrics and the closure check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cava/internal/sim"
)

const (
	// outDir receives span files and per-rep scratch directories.
	outDir = "bench/out"
	// specPath is the benchmark spec -compare takes the bounds from.
	specPath = "BENCHMARK.json"
	// childTimeout bounds one child process, so a hung rep fails the run
	// instead of stalling it.
	childTimeout = 120 * time.Second
	// unexplainedWarn is the fleet closure gap above which a run warns.
	unexplainedWarn = 0.25
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports for every workload. An
// op is a session for the sweep, a chunk event for the fleets and a
// segment request for the edge; latency is per session for the sweep and
// the fleets and per request for the edge.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ns_per_op", "ns"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_heap_live_mb", "MB"},
}

// perLayer are the metrics a traced run reports for every workload. A
// layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"video.generate_us", "us"}, {"trace.gen_lte_us", "us"}, {"trace.gen_fcc_us", "us"},
		{"quality.new_table_us", "us"}, {"scene.classify_us", "us"},
		{"trace.download_time_ns", "ns"}, {"bandwidth.observe_predict_ns", "ns"},
	}
	for _, sc := range sim.SchemeAll() {
		defs = append(defs, metricDef{"abr.select_ns." + sc.Name, "ns"})
	}
	return append(defs, []metricDef{
		{"abr.new_us.cava", "us"}, {"abr.new_us.bba1", "us"},
		{"player.advance_ns.cava", "ns"}, {"player.advance_ns.bba1", "ns"}, {"player.advance_allocs", "count"},
		{"player.simulate_us.cava", "us"}, {"metrics.summarize_us", "us"},
		{"cache.mem_hit_ns", "ns"}, {"cache.disk_write_ms", "ms"}, {"cache.disk_hit_ms", "ms"},
		{"edge.segcache_hit_ns", "ns"}, {"edge.segcache_miss_evict_ns", "ns"}, {"edge.ring_order_ns", "ns"},
		{"dash.segment_serve_us", "us"}, {"dash.loopback_fetch_us", "us"},
		{"mem.session_bytes.cava", "B"}, {"mem.session_bytes.bba1", "B"},
		{"mem.algo_bytes.cava", "B"}, {"mem.algo_bytes.bba1", "B"},
		{"mem.predictor_bytes", "B"}, {"mem.fleet_slot_bytes", "B"},
		{"fleet.assign_s", "s"}, {"fleet.run_s", "s"}, {"fleet.decide_share", "ratio"},
		{"fleet.step_ns_per_event", "ns"}, {"fleet.heap_bytes_per_session", "B"},
		{"fleet.unexplained_ratio", "ratio"}, {"fleet.shard_scaling", "ratio"},
		{"sim.decide_share", "ratio"},
		{"edge.hit_ratio", "ratio"}, {"edge.coalesced_ratio", "ratio"}, {"edge.evictions_per_request", "ratio"},
		{"edge.origin_bytes_per_served_byte", "ratio"}, {"dash.origin_serve_us", "us"}, {"dash.origin_requests", "count"},
		{"bench.trace_overhead_ratio", "ratio"},
	}...)
}

// record is one benchmark run as appended to an -out report file.
type record struct {
	Machine   machine                    `json:"machine"`
	Seconds   int                        `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// workloadReport is one workload's outcome within a run. A nil metric is
// one that cannot be measured on this machine; Notes says why.
type workloadReport struct {
	// Started is when the workload's first rep began; -compare uses it to
	// check that base and head runs alternate.
	Started    time.Time           `json:"started"`
	Correct    bool                `json:"correct"`
	Attempted  int64               `json:"attempted"`
	Failed     int64               `json:"failed"`
	Reps       int                 `json:"reps"`
	Digest     string              `json:"digest"`
	Errors     []string            `json:"errors,omitempty"`
	Notes      []string            `json:"notes,omitempty"`
	Metrics    map[string]*float64 `json:"metrics"`
	SpanSelfMs map[string]float64  `json:"span_self_ms,omitempty"`
}

func (wr *workloadReport) set(name string, v float64) { wr.Metrics[name] = &v }

func main() {
	var (
		wl        = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds   = flag.Int("seconds", 15, "how long an untraced run measures")
		traceFlag = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		outPath   = flag.String("out", "", "append the run's report to this file as one JSON line")
		compare   = flag.Bool("compare", false, "compare two report files given as arguments")
		rep       = flag.String("rep", "", "run one rep of a workload in this process and print its raw result (used by the parent)")
		traced    = flag.Bool("traced", false, "trace the -rep run")
		workers   = flag.Int("workers", runtime.NumCPU(), "workers for the -rep run")
		layers    = flag.Bool("layers", false, "run the layer phase in this process and print its result (used by the parent)")
	)
	flag.Parse()
	code, err := 0, error(nil)
	switch {
	case *compare:
		code, err = runCompare(flag.Args())
	case *rep != "":
		err = childRep(*rep, *seed, *workers, *traced)
	case *layers:
		err = childLayers(*seed)
	default:
		code, err = runParent(*wl, *seed, *seconds, *traceFlag, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func childRep(name string, seed int64, workers int, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := repConfig{seed: seed, workers: workers, outDir: outDir}
	if traced {
		cfg.spans = newSpanLog()
	}
	r, err := w.run(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

func childLayers(seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	out, err := runLayers(seed, outDir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runChild runs this program again with args and decodes its standard
// output into out. The child's diagnostics pass through to standard error.
func runChild(args []string, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%v: %w", args, err)
	}
	return json.Unmarshal(raw, out)
}

func spawnRep(name string, seed int64, workers int, traced bool) (*repResult, error) {
	args := []string{"-rep", name, "-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(workers)}
	if traced {
		args = append(args, "-traced")
	}
	var r repResult
	if err := runChild(args, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func runParent(name string, seed int64, seconds, traceFlag int, outPath string) (int, error) {
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	selected := workloads
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	traced := traceFlag == 1
	rec := record{Machine: stampMachine(seed), Seconds: seconds, Trace: traced, Workloads: map[string]*workloadReport{}}
	m := rec.Machine
	fmt.Printf("# go %s, revision %s (dirty %t), GOMAXPROCS %d, nproc %d, cpu %q, kernel %s, seed %d\n",
		m.GoVersion, m.Revision, m.Dirty, m.GOMAXPROCS, m.NumCPU, m.CPUModel, m.Kernel, m.Seed)

	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	// The layer phase depends only on the seed, so a traced run measures it
	// once for all its workloads.
	var layers map[string]float64
	if traced {
		if err := runChild([]string{"-layers", "-seed", strconv.FormatInt(seed, 10)}, &layers); err != nil {
			return 1, err
		}
	}
	for _, w := range selected {
		var wr *workloadReport
		var err error
		if traced {
			wr, err = traceWorkload(w, seed, layers)
		} else {
			wr, err = measureWorkload(w, seed, seconds)
		}
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Workloads[w.name] = wr
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", w.name, e)
		}
		for _, n := range wr.Notes {
			fmt.Printf("# %s: %s\n", w.name, n)
		}
		for _, name := range sortedKeys(wr.SpanSelfMs) {
			fmt.Printf("# %s span self time %s %.3f ms\n", w.name, name, wr.SpanSelfMs[name])
		}
		result.Correct = result.Correct && wr.Correct
		result.Attempted += wr.Attempted
		result.Failed += wr.Failed
		for _, d := range defs {
			v := wr.Metrics[d.name]
			shown := "null"
			if v != nil {
				shown = strconv.FormatFloat(*v, 'g', -1, 64)
			}
			fmt.Printf("%s %s %s %s\n", w.name, d.name, shown, d.unit)
			key := d.name
			if len(selected) > 1 {
				key = w.name + "." + d.name
			}
			result.Metrics[key] = value{v, d.unit}
		}
	}
	if outPath != "" {
		if err := appendRecord(outPath, rec); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !result.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// measureWorkload runs fresh reps of a workload for the given seconds and
// reports the end-to-end metrics: medians over reps, and latency
// percentiles over the reps' pooled samples. A rep starts only when one
// more fits the budget, except that a run takes at least one rep and
// enough latency samples to back a p99. A fleet rep outlasts the budget,
// so a fleet run holds one.
func measureWorkload(w workload, seed int64, seconds int) (*workloadReport, error) {
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var reps []*repResult
	samples := 0
	for {
		t := time.Now()
		r, err := spawnRep(w.name, seed, runtime.NumCPU(), false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		samples += len(r.LatencyMs)
		if samples >= 100*minBeyond && time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	wr := newWorkloadReport(reps)
	wr.Started = start
	per := func(f func(r *repResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	wr.set("setup_s", per(func(r *repResult) float64 { return r.SetupSec }))
	wr.set("ops_per_s", per(func(r *repResult) float64 { return float64(r.Ops) / r.RunSec }))
	wr.set("cpu_ns_per_op", per(func(r *repResult) float64 { return r.CPUSec * 1e9 / float64(r.Ops) }))
	wr.set("peak_heap_live_mb", per(func(r *repResult) float64 { return r.PeakLiveBytes / 1e6 }))
	var lat []float64
	for _, r := range reps {
		lat = append(lat, r.LatencyMs...)
	}
	lat = sortedCopy(lat)
	for _, p := range []struct {
		name string
		pct  float64
	}{{"latency_p50_ms", 50}, {"latency_p99_ms", 99}} {
		v, err := percentile(lat, p.pct)
		if err != nil {
			wr.fail("%s: %v", p.name, err)
			continue
		}
		wr.set(p.name, v)
	}
	return wr, nil
}

// traceWorkload reports the per-layer metrics of a workload: the layer
// phase's, an untraced rep for the timings tracing would distort, a traced
// rep for decision costs, origin time and spans, and for the fleets a
// one-worker rep for shard scaling.
func traceWorkload(w workload, seed int64, layers map[string]float64) (*workloadReport, error) {
	nproc := runtime.NumCPU()
	start := time.Now()
	base, err := spawnRep(w.name, seed, nproc, false)
	if err != nil {
		return nil, err
	}
	tr, err := spawnRep(w.name, seed, nproc, true)
	if err != nil {
		return nil, err
	}
	reps := []*repResult{base, tr}
	var one *repResult
	if w.scheme != "" && nproc > 1 {
		if one, err = spawnRep(w.name, seed, 1, false); err != nil {
			return nil, err
		}
		reps = append(reps, one)
	}

	wr := newWorkloadReport(reps)
	wr.Started = start
	wr.SpanSelfMs = tr.SpanSelfMs
	for _, d := range perLayer() {
		wr.set(d.name, 0)
	}
	for _, src := range []map[string]float64{layers, tr.Layer, base.Layer} {
		for k, v := range src {
			wr.set(k, v)
		}
	}
	wr.set("bench.trace_overhead_ratio", tr.RunSec/base.RunSec-1)
	if w.scheme == "" {
		return wr, nil
	}

	busyNs := float64(tr.Workers) * tr.RunSec * 1e9
	wr.set("fleet.decide_share", tr.DecideNs/busyNs)
	wr.set("fleet.step_ns_per_event", (busyNs-tr.DecideNs)/float64(tr.Ops))
	heapPerSession := (base.PeakLiveBytes - base.LiveBeforeRunBytes) / float64(base.Sessions)
	wr.set("fleet.heap_bytes_per_session", heapPerSession)
	built := layers["mem.algo_bytes."+w.scheme] + layers["mem.predictor_bytes"]
	wr.Notes = append(wr.Notes, fmt.Sprintf(
		"fleet.heap_bytes_per_session %.0f B vs algorithm + predictor %.0f B (the rest is the probe's wrapper); with the fleet slot, %.0f B per live session",
		heapPerSession, built, built+layers["mem.fleet_slot_bytes"]))
	explainedNs := float64(base.Ops)*layers["player.advance_ns."+w.scheme] + float64(base.Sessions)*layers["abr.new_us."+w.scheme]*1e3
	unexplained := 1 - explainedNs/(float64(base.Workers)*base.RunSec*1e9)
	wr.set("fleet.unexplained_ratio", unexplained)
	if unexplained > unexplainedWarn {
		fmt.Fprintf(os.Stderr, "%s: warning: %.0f%% of fleet worker time is not explained by per-layer costs (events × advance + sessions × new)\n",
			w.name, 100*unexplained)
	}
	if one == nil {
		wr.Metrics["fleet.shard_scaling"] = nil
		wr.Notes = append(wr.Notes, fmt.Sprintf("fleet.shard_scaling is null: nproc = %d, so there is no multi-worker point to compare with one worker", nproc))
	} else {
		wr.set("fleet.shard_scaling", (float64(base.Ops)/base.RunSec)/(float64(nproc)*float64(one.Ops)/one.RunSec))
	}
	return wr, nil
}

// newWorkloadReport totals the reps' op counts and checks that every rep
// passed its output checks and produced the same result digest.
func newWorkloadReport(reps []*repResult) *workloadReport {
	wr := &workloadReport{Correct: true, Reps: len(reps), Digest: reps[0].Digest, Metrics: map[string]*float64{}}
	for i, r := range reps {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, e := range r.Errors {
			wr.fail("rep %d: %s", i, e)
		}
		if r.Digest != wr.Digest {
			wr.fail("rep %d (workers %d, traced %t) digest %s differs from rep 0's %s", i, r.Workers, r.Traced, r.Digest, wr.Digest)
		}
	}
	return wr
}

func (wr *workloadReport) fail(format string, args ...any) {
	wr.Correct = false
	wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
