package sim

import (
	"slices"
	"testing"

	"cava/internal/video"
)

// TestSchemeAllNames pins the CLI names and their order: they key the
// benchmark's per-scheme metrics and the golden VOD digest.
func TestSchemeAllNames(t *testing.T) {
	want := []string{
		"bba1", "bola-avg", "bolae-avg", "bolae-peak", "bolae-seg",
		"cava", "cava-auto", "cava-p1", "cava-p12", "festive", "mpc",
		"panda-max-min", "panda-max-sum", "pia", "rba", "robustmpc",
	}
	var got []string
	for _, sc := range SchemeAll() {
		got = append(got, sc.Name)
		if sc.Key != "" {
			t.Errorf("%s: Key %q, want empty", sc.Name, sc.Key)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("SchemeAll names = %v, want %v", got, want)
	}
}

// TestRosterLabelsAreAlgorithmNames checks that every roster label is the
// name its algorithm reports, so result tables and decision traces agree.
func TestRosterLabelsAreAlgorithmNames(t *testing.T) {
	v := video.Dataset()[0]
	labels := map[string]bool{}
	for _, e := range Roster() {
		if got := e.New(v).Name(); got != e.Name {
			t.Errorf("%s: label %q, algorithm name %q", e.CLI, e.Name, got)
		}
		if labels[e.Name] {
			t.Errorf("%s: duplicate label %q", e.CLI, e.Name)
		}
		labels[e.Name] = true
	}
}
