package cava_test

import (
	"testing"

	"cava/internal/cache"
	"cava/internal/experiments"
)

// sweepSuite is the experiment set replayed by TestSweepColdWarm: the Fig.
// 8/9 pair (which share one sweep) plus the Fig. 10 ablation (two sweeps of
// its own), so the gate exercises both intra-pass reuse and the warm path.
var sweepSuite = []string{"fig8", "fig9", "fig10"}

// TestSweepColdWarm is the memoization correctness gate: a cold pass over
// sweepSuite populates a fresh cache, a warm pass must replay entirely from
// it (zero new sim misses, byte-identical output), and a third pass through
// a fresh Cache over the same -cache-dir style directory must reload from
// disk without executing a session.
func TestSweepColdWarm(t *testing.T) {
	traces := 6
	if testing.Short() {
		traces = 2
	}
	dir := t.TempDir()

	runAll := func(c *cache.Cache) map[string]string {
		t.Helper()
		out := make(map[string]string, len(sweepSuite))
		for _, id := range sweepSuite {
			res, err := experiments.Run(id, experiments.Options{Traces: traces, Cache: c})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = res.Text
		}
		return out
	}

	c := cache.New(cache.WithDir(dir))
	cold := runAll(c)
	cs := c.Stats(cache.KindSim)
	if cs.Misses == 0 {
		t.Fatal("cold pass executed no sweeps")
	}
	// fig9 reuses fig8's sweep within the cold pass already.
	if cs.Hits == 0 {
		t.Fatalf("cold stats = %+v: fig9 did not reuse fig8's sweep", cs)
	}

	warm := runAll(c)
	ws := c.Stats(cache.KindSim)
	if ws.Misses != cs.Misses {
		t.Fatalf("warm pass executed %d new sweeps (stats %+v)", ws.Misses-cs.Misses, ws)
	}
	if ws.Hits <= cs.Hits {
		t.Fatalf("warm pass recorded no cache hits (stats %+v)", ws)
	}
	for id, text := range cold {
		if warm[id] != text {
			t.Errorf("%s: warm output differs from cold output", id)
		}
	}

	// A fresh Cache over the same directory models a later process with
	// -cache-dir: everything replays from the JSON layer.
	c2 := cache.New(cache.WithDir(dir))
	disk := runAll(c2)
	ds := c2.Stats(cache.KindSim)
	if ds.Misses != 0 {
		t.Fatalf("disk pass executed %d sweeps (stats %+v)", ds.Misses, ds)
	}
	for id, text := range cold {
		if disk[id] != text {
			t.Errorf("%s: disk-loaded output differs from cold output", id)
		}
	}
}
