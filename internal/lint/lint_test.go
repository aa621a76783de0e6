package lint

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureConfig selects the fixture packages the way DefaultConfig selects
// the real tree: determfix plays the deterministic simulator, unitsfix the
// unit-suffixed domain model, hotallocfix's Hot* functions the zero-alloc
// hot-path set.
func fixtureConfig() Config {
	return Config{
		DeterministicPkgs: []string{"determfix"},
		UnitsPkgs:         []string{"unitsfix"},
		HotPathFuncs: []string{
			"hotallocfix:HotStep", "hotallocfix:HotGrow",
			"hotallocfix:HotFormat", "hotallocfix:HotConvert",
			"hotallocfix:HotIface", "hotallocfix:HotBox",
			"hotallocfix:HotClosure", "hotallocfix:HotAddr",
			"hotallocfix:HotAllowed", "hotallocfix:HotBare",
		},
	}
}

// fixturePackages is the full golden corpus.
var fixturePackages = []string{
	"determfix", "unitsfix", "nopanicfix", "nopanicmain",
	"floateqfix", "errdropfix", "hotallocfix", "locksfix",
	"goroleakfix", "atomicmixfix", "suppressfix",
}

// loadFixture type-checks one package under testdata/src.
func loadFixture(t *testing.T, ld *Loader, name string) *Package {
	t.Helper()
	p, err := ld.Load("fixture/" + name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p
}

var wantRe = regexp.MustCompile(`// want (\w+)`)
var bareAllowRe = regexp.MustCompile(`^\s*//lint:allow\s+\w+\s*$`)

// expectedFindings scans a fixture file for `// want <analyzer>` markers
// (one expected finding on that line) and bare reason-less `//lint:allow`
// directives (one expected "allow" finding on that line).
func expectedFindings(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			want = append(want, fmt.Sprintf("%s:%d:%s", filepath.Base(path), i+1, m[1]))
		}
		if bareAllowRe.MatchString(line) {
			want = append(want, fmt.Sprintf("%s:%d:allow", filepath.Base(path), i+1))
		}
	}
	sort.Strings(want)
	return want
}

// compact renders findings as base-file:line:analyzer for golden comparison.
func compact(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer)
	}
	sort.Strings(out)
	return out
}

// TestAnalyzersAgainstFixtures runs the full suite over each fixture package
// and compares the surviving findings against the `// want` markers in the
// fixture source — every marker must fire, and nothing else may.
func TestAnalyzersAgainstFixtures(t *testing.T) {
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	for _, name := range fixturePackages {
		t.Run(name, func(t *testing.T) {
			p := loadFixture(t, ld, name)
			got := compact(Analyze([]*Package{p}, fixtureConfig()))
			var want []string
			for _, f := range p.Files {
				want = append(want, expectedFindings(t, p.Fset.Position(f.Pos()).Filename)...)
			}
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestDeterminismScopedByConfig verifies the package selector: the same
// wall-clock-reading fixture produces no determinism findings when it is
// outside DeterministicPkgs, and none of its files produce findings when
// allowlisted.
func TestDeterminismScopedByConfig(t *testing.T) {
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	p := loadFixture(t, ld, "determfix")

	for _, f := range Analyze([]*Package{p}, Config{}) {
		if f.Analyzer == "determinism" || f.Analyzer == "units" {
			t.Errorf("unselected package still flagged: %v", f)
		}
	}

	cfg := fixtureConfig()
	cfg.DeterminismAllowFiles = []string{"determfix/determfix.go"}
	for _, f := range Analyze([]*Package{p}, cfg) {
		if f.Analyzer == "determinism" {
			t.Errorf("allowlisted file still flagged: %v", f)
		}
	}
}

// TestFindingString pins the canonical rendering the CLI prints and the
// golden tests parse.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "nopanic", Message: "no"}
	f.Pos.Filename, f.Pos.Line = "a/b.go", 7
	if got := f.String(); got != "a/b.go:7: [nopanic] no" {
		t.Errorf("String() = %q", got)
	}
}

// TestRepoIsClean is the self-check gate: the suite must report zero
// findings over this repository's own tree, so `abrlint ./...` stays a
// tier-1 gate (any new finding fails this test before it fails CI).
func TestRepoIsClean(t *testing.T) {
	findings, err := Run(filepath.Join("..", ".."), DefaultConfig())
	if err != nil {
		t.Fatalf("load repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d findings; the repository must stay lint-clean", len(findings))
	}
}

// TestVetCopylocks runs go vet's copylocks check over the module: it is
// the gate against copying a sync primitive or a typed atomic by value,
// and go test does not run it itself.
func TestVetCopylocks(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "-copylocks", "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -copylocks ./...: %v\n%s", err, out)
	}
}

// TestFixtureViolationsFailTheSuite mirrors what cmd/abrlint's exit code
// rests on: a tree containing violations yields a non-empty finding list.
func TestFixtureViolationsFailTheSuite(t *testing.T) {
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	p := loadFixture(t, ld, "determfix")
	if len(Analyze([]*Package{p}, fixtureConfig())) == 0 {
		t.Fatal("fixture violations produced no findings")
	}
}

// TestSuppressionRequiresReason pins the directive grammar edge cases.
func TestSuppressionRequiresReason(t *testing.T) {
	ld := NewLoader(filepath.Join("testdata", "src"), "fixture")
	p := loadFixture(t, ld, "nopanicfix")
	sup := collectSuppressions(p)
	if len(sup.broken) != 1 {
		t.Fatalf("broken suppressions = %d, want 1", len(sup.broken))
	}
	if !strings.Contains(sup.broken[0].Message, "needs a reason") {
		t.Errorf("broken message = %q", sup.broken[0].Message)
	}
}

// TestStickyWriterExemption pins the errdrop writer taxonomy on real types.
func TestStickyWriterExemption(t *testing.T) {
	// Compile-time spot check that the exempted types still have the
	// latching semantics the analyzer's comment claims for bufio.
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	fmt.Fprintf(bw, "x")
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if sb.String() != "x" {
		t.Fatal("buffered write lost")
	}
}
