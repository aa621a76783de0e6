package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// repConfig is what one rep of a workload runs with.
type repConfig struct {
	seed    int64
	workers int      // fleet shards, sweep workers, edge clients
	small   bool     // tiny sizes, for the harness's own smoke test
	outDir  string   // spans and scratch files go here
	spans   *spanLog // nil for an untraced rep
}

// repResult is one rep's raw measurements, sent from the child process
// that ran it to the parent that aggregates the reps.
type repResult struct {
	Workload  string  `json:"workload"`
	Workers   int     `json:"workers"`
	Traced    bool    `json:"traced"`
	SetupSec  float64 `json:"setup_sec"`
	RunSec    float64 `json:"run_sec"`
	CPUSec    float64 `json:"cpu_sec"`
	Ops       int64   `json:"ops"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Sessions  int64   `json:"sessions"`
	// PeakLiveBytes is the highest /gc/heap/live:bytes seen from the end
	// of setup to the end of the run; LiveBeforeRunBytes is the live heap
	// at the start of the run.
	PeakLiveBytes      float64 `json:"peak_live_bytes"`
	LiveBeforeRunBytes float64 `json:"live_before_run_bytes"`
	// DecideNs estimates the time all algorithm instances spent deciding
	// (traced reps only).
	DecideNs  float64   `json:"decide_ns"`
	LatencyMs []float64 `json:"latency_ms"`
	Digest    string    `json:"digest"`
	Errors    []string  `json:"errors,omitempty"`
	// Layer holds per-layer numbers only this workload can measure.
	Layer      map[string]float64 `json:"layer,omitempty"`
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
}

func (r *repResult) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// scheme is the fleet workloads' algorithm; they also get a
	// one-worker rep and the closure check in the traced run.
	scheme string
	run    func(cfg repConfig) (*repResult, error)
}

var workloads = []workload{
	{name: "sweep", run: runSweep},
	{name: "fleet-cava", scheme: "cava", run: fleetWorkload("fleet-cava", "cava")},
	{name: "fleet-bba", scheme: "bba1", run: fleetWorkload("fleet-bba", "bba1")},
	{name: "edge-hot", run: edgeWorkload(true)},
	{name: "edge-churn", run: edgeWorkload(false)},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// meter times a rep's phases from outside the program under test: wall
// time for setup, wall and process CPU time for the run, and the live heap
// sampled every 10 ms from the end of setup to the end of the run. Setup
// ends with a forced GC so every run starts from the same collector state.
type meter struct {
	spans *spanLog
	start int64
	r     *repResult

	stop, done chan struct{}
	peak       float64 // written by the sampler until done is closed

	gcDone chan struct{} // closed once the collect GC has been read
	gcLive float64
}

func newMeter(name string, cfg repConfig) *meter {
	return &meter{
		spans: cfg.spans, start: cfg.spans.since(),
		r: &repResult{Workload: name, Workers: cfg.workers, Traced: cfg.spans != nil, Layer: map[string]float64{}},
	}
}

// setup runs f as the timed set-up phase, then collects garbage and starts
// the heap sampler.
func (m *meter) setup(f func() error) error { return m.setupRepeated(1, f) }

// setupRepeated runs f n times and reports the median set-up time, for a
// workload whose run is too long for a run to hold several reps. Each call
// of f must replace what the previous one built.
func (m *meter) setupRepeated(n int, f func() error) error {
	s := m.spans.since()
	times := make([]float64, n)
	for i := range times {
		t := time.Now()
		err := f()
		times[i] = time.Since(t).Seconds()
		if err != nil {
			m.spans.phase(m.r.Workload, "setup", "rep", "setup", s)
			return fmt.Errorf("%s setup: %w", m.r.Workload, err)
		}
	}
	m.r.SetupSec = median(times)
	m.spans.phase(m.r.Workload, "setup", "rep", "setup", s)
	runtime.GC()
	m.r.LiveBeforeRunBytes = liveHeapBytes()
	m.peak = m.r.LiveBeforeRunBytes
	m.stop, m.done = make(chan struct{}), make(chan struct{})
	go m.sample()
	return nil
}

func (m *meter) sample() {
	defer close(m.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.peak = max(m.peak, liveHeapBytes())
		}
	}
}

// collect starts one GC that runs alongside the workload and keeps the
// live heap it finds. A workload calls it at the moment its live set peaks
// when the run itself allocates too little to trigger a GC there.
func (m *meter) collect() {
	m.gcDone = make(chan struct{})
	go func() {
		defer close(m.gcDone)
		runtime.GC()
		m.gcLive = liveHeapBytes()
	}()
}

// run times f as the measured phase.
func (m *meter) run(f func() error) error {
	s := m.spans.since()
	cpu := cpuSeconds()
	t := time.Now()
	err := f()
	m.r.RunSec = time.Since(t).Seconds()
	m.r.CPUSec = cpuSeconds() - cpu
	m.spans.phase(m.r.Workload, "run", "rep", "run", s)
	if err != nil {
		return fmt.Errorf("%s run: %w", m.r.Workload, err)
	}
	return nil
}

// finish stops the sampler, takes a last live-heap reading while the
// workload's state is still reachable, and closes the rep's spans. Call it
// before releasing the workload.
func (m *meter) finish(cfg repConfig) (*repResult, error) {
	if m.stop != nil {
		close(m.stop)
		<-m.done
		if m.gcDone != nil {
			<-m.gcDone
			m.peak = max(m.peak, m.gcLive)
		}
		runtime.GC()
		m.r.PeakLiveBytes = max(m.peak, liveHeapBytes())
	}
	if cfg.spans == nil {
		return m.r, nil
	}
	m.spans.phase(m.r.Workload, "rep", "workload", "rep", m.start)
	m.spans.phase(m.r.Workload, "workload", "", "workload", m.start)
	self, err := cfg.spans.write(filepath.Join(cfg.outDir, m.r.Workload+".spans.jsonl"))
	if err != nil {
		return nil, err
	}
	m.r.SpanSelfMs = self
	return m.r, nil
}

// liveHeapBytes reads the heap the last GC found live.
func liveHeapBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
