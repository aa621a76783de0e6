package experiments

import (
	"strings"
	"testing"

	"cava/internal/cache"
)

// tinyOpt keeps experiment tests fast while exercising the full pipeline.
var tinyOpt = Options{Traces: 3}

func TestIDsComplete(t *testing.T) {
	want := []string{"alpha", "autotune", "baselines", "cap4x", "cbrvbr", "chaos", "chunkdur", "codec",
		"edge", "fig1", "fig10", "fig11", "fig2", "fig3", "fig4", "fig7", "fig7b", "fig8", "fig9",
		"fleet", "live", "liveext", "multiclient", "oracle", "prederr", "robustness", "startup",
		"table1", "table2"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range got {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", tinyOpt); err == nil {
		t.Error("unknown experiment id did not error")
	}
}

func TestRunAllFastExperiments(t *testing.T) {
	// "live", "robustness", "chaos" and "edge" open real sockets and sleep in
	// wall time; they have their own tests. Everything else must run at tiny
	// scale.
	for _, id := range IDs() {
		if id == "live" || id == "robustness" || id == "chaos" || id == "edge" {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id, tinyOpt)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Text == "" {
				t.Fatalf("%s: empty result", id)
			}
		})
	}
}

func TestFig1ContainsLadder(t *testing.T) {
	res, err := Run("fig1", tinyOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, rung := range []string{"144p", "240p", "360p", "480p", "720p", "1080p"} {
		if !strings.Contains(res.Text, rung) {
			t.Errorf("fig1 output missing track %s", rung)
		}
	}
}

func TestFig8ComparesAllSchemes(t *testing.T) {
	res, err := Run("fig8", tinyOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"CAVA", "MPC", "RobustMPC", "PANDA/CQ max-sum", "PANDA/CQ max-min"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("fig8 output missing scheme %s", s)
		}
	}
	if !strings.Contains(res.Text, "quality of Q4 chunks") ||
		!strings.Contains(res.Text, "total rebuffering") ||
		!strings.Contains(res.Text, "data usage") {
		t.Error("fig8 output missing a metric section")
	}
}

func TestTable1CoversBothSets(t *testing.T) {
	res, err := Run("table1", tinyOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "LTE") || !strings.Contains(res.Text, "FCC") {
		t.Error("table1 missing a trace set")
	}
	for _, v := range []string{"ED", "BBB", "ToS", "Sintel", "Sports", "Animal", "Nature", "Action"} {
		if !strings.Contains(res.Text, v) {
			t.Errorf("table1 missing video %s", v)
		}
	}
}

func TestFig10HasAblationVariants(t *testing.T) {
	res, err := Run("fig10", tinyOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "CAVA-p12") || !strings.Contains(res.Text, "CAVA-p123") {
		t.Error("fig10 missing ablation variants")
	}
}

func TestLiveExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP experiment")
	}
	res, err := Run("live", Options{Traces: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "CAVA") || !strings.Contains(res.Text, "BOLA-E (seg)") {
		t.Errorf("live output missing schemes:\n%s", res.Text)
	}
}

func TestRobustnessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP experiment")
	}
	res, err := Run("robustness", Options{Traces: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CAVA", "BOLA-E (seg)", "transient", "lossy", "outage"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("robustness output missing %q:\n%s", want, res.Text)
		}
	}
}

func TestChaosExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP experiment")
	}
	res, err := Run("chaos", Options{Traces: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"transient", "lossy", "invariants", "shed seen"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("chaos output missing %q:\n%s", want, res.Text)
		}
	}
	if strings.Contains(res.Text, "VIOLATED") {
		t.Errorf("chaos sweep violated invariants:\n%s", res.Text)
	}
}

func TestDeterministicOutputs(t *testing.T) {
	a, err := Run("fig3", tinyOpt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig3", tinyOpt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Error("fig3 output not deterministic")
	}
}

// TestFig8Fig9ShareOneSweep pins the memoization contract at the experiments
// layer: fig8 and fig9 render the same underlying sweep, so running both with
// one cache must execute sim.Run's sessions exactly once.
func TestFig8Fig9ShareOneSweep(t *testing.T) {
	c := cache.New()
	opt := Options{Traces: 2, Cache: c}
	if _, err := Run("fig8", opt); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(cache.KindSim); s.Misses != 1 {
		t.Fatalf("fig8 stats = %+v, want exactly 1 sweep executed", s)
	}
	if _, err := Run("fig9", opt); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(cache.KindSim); s.Misses != 1 || s.Hits < 1 {
		t.Fatalf("fig8+fig9 stats = %+v, want the second runner to reuse the sweep", s)
	}
}
