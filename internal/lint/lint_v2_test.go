package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixtureCorpus loads every fixture package (the full golden corpus).
func loadFixtureCorpus(t *testing.T) []*Package {
	t.Helper()
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	pkgs := make([]*Package, 0, len(fixturePackages))
	for _, name := range fixturePackages {
		pkgs = append(pkgs, loadFixture(t, ld, name))
	}
	return pkgs
}

// TestNineAnalyzersRegistered pins the suite roster: the repo-clean gate
// (TestRepoIsClean) runs Analyzers(), so this list is exactly what that
// gate covers, plus the "allow" pseudo-analyzer for broken directives.
func TestNineAnalyzersRegistered(t *testing.T) {
	want := []string{
		"determinism", "units", "nopanic", "floateq", "errdrop",
		"hotalloc", "locks", "goroleak", "atomicmix",
	}
	var got []string
	for _, a := range Analyzers() {
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run function", a.Name)
		}
		got = append(got, a.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyzers() = %v, want %v", got, want)
	}
	if names := AnalyzerNames(); !reflect.DeepEqual(names, append(want, "allow")) {
		t.Fatalf("AnalyzerNames() = %v, want the suite plus \"allow\"", names)
	}
}

// decodeJSON reads a WriteJSON stream back with encoding/json.
func decodeJSON(t *testing.T, r io.Reader) []Finding {
	t.Helper()
	var out []Finding
	dec := json.NewDecoder(r)
	for dec.More() {
		var jf jsonFinding
		if err := dec.Decode(&jf); err != nil {
			t.Fatal(err)
		}
		out = append(out, Finding{
			Pos:      token.Position{Filename: jf.File, Line: jf.Line, Column: jf.Col},
			Analyzer: jf.Analyzer, Message: jf.Message, Suppressed: jf.Suppressed,
		})
	}
	return out
}

// TestJSONRoundTrip pins the -json wire format: WriteJSON then a decode
// reproduces the findings exactly, suppressed markers included.
func TestJSONRoundTrip(t *testing.T) {
	in := []Finding{
		{
			Pos:      token.Position{Filename: "internal/player/step.go", Line: 41, Column: 7},
			Analyzer: "hotalloc",
			Message:  "append in hot path may allocate",
		},
		{
			Pos:        token.Position{Filename: "internal/cache/cache.go", Line: 75, Column: 2},
			Analyzer:   "errdrop",
			Message:    "f.Close returns an error that is silently dropped",
			Suppressed: true,
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(in) {
		t.Fatalf("WriteJSON emitted %d lines, want one per finding (%d)", lines, len(in))
	}
	if out := decodeJSON(t, &buf); !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip diverged\n got: %+v\nwant: %+v", out, in)
	}
}

// TestJSONRoundTripLiveFindings round-trips the real fixture-corpus output
// (every analyzer, suppressed and active findings mixed).
func TestJSONRoundTripLiveFindings(t *testing.T) {
	in := AnalyzeAll(loadFixtureCorpus(t), fixtureConfig())
	// Offset is not part of the wire format; the CLI prints file:line:col.
	for i := range in {
		in[i].Pos.Offset = 0
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	if out := decodeJSON(t, &buf); !reflect.DeepEqual(out, in) {
		t.Fatalf("live round trip diverged (%d findings in, %d out)", len(in), len(out))
	}
}

// TestSuppressedMarkedNotDropped pins the audit view: AnalyzeAll keeps a
// waived finding, marked, at the position the directive covers; Analyze
// filters exactly the marked ones.
func TestSuppressedMarkedNotDropped(t *testing.T) {
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	pkgs := []*Package{loadFixture(t, ld, "errdropfix")}
	all := AnalyzeAll(pkgs, fixtureConfig())
	var suppressed []Finding
	for _, f := range all {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) == 0 {
		t.Fatal("AnalyzeAll dropped the waived errdrop finding instead of marking it")
	}
	for _, f := range suppressed {
		if f.Analyzer != "errdrop" {
			t.Errorf("unexpected suppressed finding %s", f)
		}
	}
	active := Analyze(pkgs, fixtureConfig())
	if got, want := len(active), len(all)-len(suppressed); got != want {
		t.Fatalf("Analyze returned %d findings, want AnalyzeAll minus the %d suppressed (%d)",
			got, len(suppressed), want)
	}
	for _, f := range active {
		if f.Suppressed {
			t.Errorf("Analyze leaked a suppressed finding: %s", f)
		}
	}
}

// suppressfixFindings analyzes the suppressfix fixture and returns every
// finding, suppressed included.
func suppressfixFindings(t *testing.T) []Finding {
	t.Helper()
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	return AnalyzeAll([]*Package{loadFixture(t, ld, "suppressfix")}, fixtureConfig())
}

// TestStackedSuppressionDirectives pins the directive-stack walk: a waiver
// at the top of a contiguous run of directives still covers the flagged
// line below the run, while the unwaived control panic fires.
func TestStackedSuppressionDirectives(t *testing.T) {
	var stacked, control *Finding
	findings := suppressfixFindings(t)
	for i, f := range findings {
		if f.Analyzer != "nopanic" {
			continue
		}
		switch f.Pos.Line {
		case 17:
			stacked = &findings[i]
		case 22:
			control = &findings[i]
		}
	}
	if stacked == nil || !stacked.Suppressed {
		t.Errorf("stacked directive did not suppress the panic at line 17: %+v", stacked)
	}
	if control == nil || control.Suppressed {
		t.Errorf("control panic at line 22 should fire unsuppressed: %+v", control)
	}
}

// TestUnknownAnalyzerReported pins directive validation: a lint:allow
// naming an analyzer outside AnalyzerNames is itself a finding, under the
// "allow" pseudo-analyzer, at the directive's own line.
func TestUnknownAnalyzerReported(t *testing.T) {
	var found bool
	for _, f := range suppressfixFindings(t) {
		if f.Analyzer != "allow" {
			continue
		}
		found = true
		if f.Pos.Line != 28 {
			t.Errorf("unknown-analyzer finding at line %d, want 28", f.Pos.Line)
		}
		if !strings.Contains(f.Message, "nosuchcheck") {
			t.Errorf("finding message %q does not name the unknown analyzer", f.Message)
		}
		if f.Suppressed {
			t.Errorf("broken directive must not be suppressible: %+v", f)
		}
	}
	if !found {
		t.Error("no finding for the unknown-analyzer directive")
	}
}
