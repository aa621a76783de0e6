package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"cava/internal/abr"
	"cava/internal/sim"
	"cava/internal/video"
)

// The probe must not change what the player sees: its wrapper implements
// abr.Delayer and abr.Traced exactly when the wrapped algorithm does, in
// both the untraced and the traced mode.
func TestProbeKeepsOptionalInterfaces(t *testing.T) {
	v := video.FFmpegVideo(video.OpenTitles[0], video.H264)
	for _, traced := range []*spanLog{nil, newSpanLog()} {
		for _, sc := range sim.SchemeAll() {
			inner := sc.New(v)
			wrapped := newProbe(1, 0, traced).wrap(sc.New)(v)
			_, innerDelays := inner.(abr.Delayer)
			_, innerTraces := inner.(abr.Traced)
			_, delays := wrapped.(abr.Delayer)
			_, traces := wrapped.(abr.Traced)
			if delays != innerDelays || traces != innerTraces {
				t.Errorf("%s (traced %t): wrapper Delayer=%t Traced=%t, algorithm Delayer=%t Traced=%t",
					sc.Name, traced != nil, delays, traces, innerDelays, innerTraces)
			}
			switch sc.Name {
			case "bolae-seg":
				if !delays {
					t.Errorf("wrapped bolae-seg lost abr.Delayer")
				}
			case "cava":
				if !traces {
					t.Errorf("wrapped cava lost abr.Traced")
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if v, err := percentile(xs(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(xs(999), 99); err == nil {
		t.Errorf("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs(21), 50); err != nil || v != 11 {
		t.Errorf("p50 of 21 samples = %v, %v; want 11", v, err)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// -compare must not read host drift as a regression: the same code run in
// two sets an hour apart is unresolved, the same code in alternating runs
// under the same drift is ok, and a real slowdown in alternating runs is a
// regression.
func TestVerdictPairsAlternatingRuns(t *testing.T) {
	m := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	t0 := time.Unix(0, 0)
	runs := func(first, step time.Duration, v func(i int) float64) []run {
		out := make([]run, 6)
		for i := range out {
			out[i] = run{t0.Add(first + time.Duration(i)*step), v(i)}
		}
		return out
	}
	// The host slows by 1% per minute, and by 30% in an hour; each run
	// takes one minute.
	drift := func(i int) float64 { return 1000 * (1 - 0.01*float64(i)) }
	early := runs(0, time.Minute, drift)
	late := runs(time.Hour, time.Minute, func(i int) float64 { return 0.7 * drift(i) })
	if _, v := verdict(m, early, late); v != "unresolved (runs not interleaved)" {
		t.Errorf("sets an hour apart: verdict %q, want unresolved", v)
	}
	base := runs(0, 2*time.Minute, func(i int) float64 { return drift(2 * i) })
	same := runs(time.Minute, 2*time.Minute, func(i int) float64 { return drift(2*i + 1) })
	if change, v := verdict(m, base, same); v != "ok" {
		t.Errorf("same code, alternating under drift: verdict %q (change %.3f), want ok", v, change)
	}
	slow := runs(time.Minute, 2*time.Minute, func(i int) float64 { return 0.6 * drift(2*i+1) })
	if change, v := verdict(m, base, slow); v != "regression" {
		t.Errorf("40%% slower, alternating: verdict %q (change %.3f), want regression", v, change)
	}
}

func TestSelfTimeCountsOverlapsOnce(t *testing.T) {
	l := &spanLog{spans: []span{
		{ID: "p", StartNs: 0, DurNs: 100, Name: "parent"},
		{ID: "a", Parent: "p", StartNs: 10, DurNs: 20, Name: "child"},
		{ID: "b", Parent: "p", StartNs: 20, DurNs: 30, Name: "child"},
		{ID: "c", Parent: "p", StartNs: 90, DurNs: 30, Name: "child"},
	}}
	l.selfTimes()
	if got := l.spans[0].SelfNs; got != 50 {
		t.Errorf("parent self time %d ns, want 100 - (40 + 10) = 50", got)
	}
}

// The metric names and units the harness prints must be the ones
// BENCHMARK.json declares.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []specMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: harness %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, sp.EndToEnd)
	check("per_layer", perLayer(), sp.PerLayer)

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness %d", len(names.Workloads), len(workloads))
	}
	for i, w := range names.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// Every workload runs at tiny size, untraced and traced, passes its own
// output checks, and yields the same digest both ways.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, spans := range []*spanLog{nil, newSpanLog()} {
				r, err := w.run(repConfig{seed: 3, workers: 2, small: true, outDir: t.TempDir(), spans: spans})
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Errors) > 0 {
					t.Fatalf("checks failed: %v", r.Errors)
				}
				if r.Ops == 0 || r.RunSec <= 0 || r.Digest == "" || len(r.LatencyMs) == 0 {
					t.Fatalf("empty result: %d ops in %v s, digest %q, %d latencies", r.Ops, r.RunSec, r.Digest, len(r.LatencyMs))
				}
				if spans != nil && len(r.SpanSelfMs) == 0 {
					t.Errorf("traced rep recorded no spans")
				}
				digests = append(digests, r.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("traced digest %s differs from untraced %s", digests[1], digests[0])
			}
		})
	}
}
