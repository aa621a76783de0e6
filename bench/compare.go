package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the harness reads: the metric names,
// units, directions and regression bounds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads a report file: one JSON record per benchmark run.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare compares the untraced runs of two report files, every
// workload × end-to-end metric, against the bounds in the spec. It returns
// exit code 1 when any pairing regressed.
func runCompare(args []string) (int, error) {
	if len(args) != 2 {
		return 2, errors.New("usage: -compare base.jsonl head.jsonl")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return 2, err
	}
	base, err := loadRecords(args[0])
	if err != nil {
		return 2, err
	}
	head, err := loadRecords(args[1])
	if err != nil {
		return 2, err
	}
	names := map[string]bool{}
	for _, r := range base {
		for w := range r.Workloads {
			names[w] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for w := range names {
		sorted = append(sorted, w)
	}
	sort.Strings(sorted)

	regressions := 0
	fmt.Printf("%-10s %-18s %12s %12s %12s %12s %12s %12s %9s  %s\n",
		"workload", "metric", "base_median", "base_q1", "base_q3", "head_median", "head_q1", "head_q3", "change", "verdict")
	for _, w := range sorted {
		for _, m := range sp.EndToEnd {
			b, h := runValues(base, w, m.Name), runValues(head, w, m.Name)
			if len(b) == 0 || len(h) == 0 {
				fmt.Printf("%-10s %-18s missing on one side\n", w, m.Name)
				continue
			}
			change, v := verdict(m, b, h)
			if v == "regression" {
				regressions++
			}
			bv, hv := values(b), values(h)
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Printf("%-10s %-18s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+8.1f%%  %s\n",
				w, m.Name, median(bv), bq1, bq3, median(hv), hq1, hq3, 100*change, v)
		}
	}
	if regressions > 0 {
		return 1, nil
	}
	return 0, nil
}

// run is one untraced run's value of a metric and when the run started.
type run struct {
	at time.Time
	v  float64
}

// runValues collects a metric's value from every untraced run of a
// workload, in start order.
func runValues(recs []record, w, metric string) []run {
	var out []run
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if wr := r.Workloads[w]; wr != nil {
			if v := wr.Metrics[metric]; v != nil {
				out = append(out, run{wr.Started, *v})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].at.Before(out[b].at) })
	return out
}

func values(rs []run) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.v
	}
	return out
}

// interleaved reports whether base and head runs alternate in time, so
// that base[i] and head[i] ran next to each other: the same count on each
// side, and in start order every two runs hold one of each.
func interleaved(base, head []run) bool {
	if len(base) != len(head) {
		return false
	}
	type tagged struct {
		at   time.Time
		head bool
	}
	all := make([]tagged, 0, 2*len(base))
	for i := range base {
		all = append(all, tagged{base[i].at, false}, tagged{head[i].at, true})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at.Before(all[b].at) })
	for i := 0; i < len(all); i += 2 {
		if all[i].head == all[i+1].head {
			return false
		}
	}
	return true
}

// verdict judges head against base and returns the change it judged by, a
// share of the base that is positive when head is worse. Pairing cancels
// the host's drift, which moved whole sets of runs on a shared machine by
// more than the bounds, so the runs must alternate base, head, base, head
// (either order within a pair) and the change is the median over pairs of
// head[i] against base[i]. Runs that do not alternate are unresolved. So
// is a base whose own interquartile spread exceeds the bound, unless head
// beats base in every pair. Otherwise a change beyond the bound is a
// regression.
func verdict(m specMetric, base, head []run) (float64, string) {
	bm := median(values(base))
	if !interleaved(base, head) {
		return worse(m, bm, median(values(head))), "unresolved (runs not interleaved)"
	}
	changes := make([]float64, len(base))
	allBetter := true
	for i := range base {
		changes[i] = worse(m, base[i].v, head[i].v)
		allBetter = allBetter && changes[i] < 0
	}
	change := median(changes)
	q1, q3 := quartiles(values(base))
	if bm == 0 || (q3-q1)/math.Abs(bm) > m.Bound {
		if allBetter {
			return change, "ok"
		}
		return change, "unresolved"
	}
	if change > m.Bound {
		return change, "regression"
	}
	return change, "ok"
}

// worse is how much worse head is than base, as a share of base.
func worse(m specMetric, base, head float64) float64 {
	d := (head - base) / math.Abs(base)
	if m.Better == "higher" {
		return -d
	}
	return d
}
