// Package lint is abrlint's analyzer suite: project-specific static
// analysis that enforces the invariants this reproduction rests on but the
// compiler cannot see. Three of them are global correctness properties —
// every simulation path must be seed-deterministic (the sweep cache replays
// warm results byte-for-byte), every float64 carries its unit only in its
// name (bits vs bytes, Bps vs Kbps, seconds vs milliseconds), and library
// packages return errors instead of panicking — two are bug-class gates
// (float equality, silently dropped errors), and four guard the
// fleet-scale concurrency and allocation contracts (hotalloc, locks,
// goroleak, atomicmix) that are otherwise pinned only dynamically by
// testing.AllocsPerRun, leakcheck and -race soaks. Copying a lock or a
// typed atomic by value is go vet's copylocks check (TestVetCopylocks), and
// metric names are checked by telemetry.Registry when a series is created.
//
// The suite is built on go/parser and go/types with the source importer
// only, so it works offline with zero module dependencies and runs as a
// tier-1 gate next to go vet. Packages are analyzed one after another;
// output is position-sorted.
//
// Suppressions: a finding may be waived with a comment on the flagged line
// or on the directive stack directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a reason-less directive, or one naming an
// unknown analyzer, is itself reported (analyzer name "allow").
// Suppressions are per-line and per-analyzer; consecutive directive lines
// stack, so several analyzers can be waived above one flagged line.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	// Pos locates the violation (file, line, column).
	Pos token.Position
	// Analyzer is the reporting analyzer's name (one of Analyzers, or
	// "allow" for broken suppression directives).
	Analyzer string
	// Message describes the violation.
	Message string
	// Suppressed marks a finding waived by a lint:allow directive. The CLI
	// exit status and the repo-clean gate ignore suppressed findings; the
	// -json output carries them so tooling can audit the waiver set.
	Suppressed bool
}

// String renders the finding in the canonical file:line: [analyzer] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Config selects which packages each analyzer inspects. Package entries are
// import-path suffixes ("internal/sim" matches cava/internal/sim); file
// entries are slash-path suffixes relative to the module root.
type Config struct {
	// DeterministicPkgs is the package set whose behaviour must be a pure
	// function of explicit seeds: the simulator and everything feeding it.
	// The determinism analyzer flags wall-clock reads, global math/rand
	// use, and order-dependent map iteration here.
	DeterministicPkgs []string
	// DeterminismAllowFiles are files inside DeterministicPkgs exempt from
	// the determinism analyzer: the real Clock implementation is the single
	// place allowed to call time.Now.
	DeterminismAllowFiles []string
	// UnitsPkgs is the domain set whose numeric identifiers must carry
	// explicit unit suffixes.
	UnitsPkgs []string
	// HotPathFuncs is the zero-alloc hot-path set the hotalloc analyzer
	// inspects: "pkg-suffix:FuncName" entries naming functions (or methods,
	// by bare name) that run once per simulated event and must not allocate
	// in the steady state.
	HotPathFuncs []string
}

// DefaultConfig is the repository configuration: the deterministic set is
// every package the sweep cache assumes replays byte-identically, plus
// internal/dash, whose only wall-clock read is the Clock interface's real
// implementation (clock.go, allowlisted). The analyzer sees reads, not
// waits: internal/dash/fetch.go still waits on time.NewTimer and sets
// context.WithTimeout deadlines on the wall clock, which a FakeClock does
// not drive. internal/telemetry stays outside the deterministic set: it
// timestamps real traffic by design.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"internal/sim", "internal/experiments", "internal/player",
			"internal/video", "internal/trace", "internal/scene",
			"internal/abr", "internal/metrics", "internal/cache",
			"internal/quality", "internal/oracle",
			"internal/report", "internal/core", "internal/bandwidth",
			"internal/plot", "internal/cliutil", "internal/lint",
			"internal/dash", "internal/edge", "internal/fleet",
		},
		DeterminismAllowFiles: []string{"internal/dash/clock.go"},
		UnitsPkgs: []string{
			"internal/video", "internal/trace", "internal/player",
			"internal/abr", "internal/bandwidth",
			"internal/metrics", "internal/core", "internal/oracle",
			"internal/edge", "internal/fleet",
		},
		// The hot-path set is exactly the per-event code the fleet engine's
		// zero-alloc guards (testing.AllocsPerRun) pin dynamically: the
		// player chunk-step core, the fleet drain/shard loop and event heap,
		// the bandwidth predictor ring and the trace integration.
		HotPathFuncs: []string{
			"internal/player:Advance", "internal/player:advance",
			"internal/player:BeginChunk", "internal/player:beginChunk",
			"internal/player:WantDelay", "internal/player:FullBufferWait",
			"internal/player:Refresh", "internal/player:Decide",
			"internal/player:FinishDownload", "internal/player:SkipChunk",
			"internal/player:MaybeStartup", "internal/player:NextChunk",
			"internal/player:drainFor", "internal/player:ElapseTo",
			"internal/player:AddStall", "internal/player:AddSessionStall",
			"internal/player:NoteWait", "internal/player:predict",
			"internal/player:tracer",
			"internal/fleet:drain", "internal/fleet:runBatch",
			"internal/fleet:stepSession", "internal/fleet:advanceSession",
			"internal/fleet:observeChunk",
			"internal/fleet:finishSession", "internal/fleet:drainInstant",
			"internal/fleet:push", "internal/fleet:place",
			"internal/fleet:newBlock", "internal/fleet:filled",
			"internal/fleet:settle", "internal/fleet:takeDue",
			"internal/fleet:keyOf", "internal/fleet:schedule",
			"internal/fleet:epochStart",
			"internal/bandwidth:ObserveDownload", "internal/bandwidth:Predict",
			"internal/bandwidth:Reset",
			"internal/trace:DownloadTime",
		},
	}
}

// pkgSelected reports whether an import path is in the suffix set.
func pkgSelected(path string, set []string) bool {
	for _, s := range set {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// fileSelected reports whether a filename is in the slash-suffix set.
func fileSelected(filename string, set []string) bool {
	f := strings.ReplaceAll(filename, "\\", "/")
	for _, s := range set {
		if f == s || strings.HasSuffix(f, "/"+s) {
			return true
		}
	}
	return false
}

// Analyzer is one check over a type-checked package.
type Analyzer struct {
	Name string
	Run  func(*Package, Config) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{Name: "determinism", Run: runDeterminism},
		{Name: "units", Run: runUnits},
		{Name: "nopanic", Run: runNoPanic},
		{Name: "floateq", Run: runFloatEq},
		{Name: "errdrop", Run: runErrDrop},
		{Name: "hotalloc", Run: runHotAlloc},
		{Name: "locks", Run: runLocks},
		{Name: "goroleak", Run: runGoroleak},
		{Name: "atomicmix", Run: runAtomicMix},
	}
}

// AnalyzerNames returns every valid analyzer name, including "allow" (the
// pseudo-analyzer broken suppression directives report under). The
// suppression scanner validates lint:allow directives against this set.
func AnalyzerNames() []string {
	names := make([]string, 0, 10)
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return append(names, "allow")
}

// Run loads every package under the given root directories and applies the
// suite, returning the surviving (non-suppressed) findings sorted by
// position. Load errors (parse or type-check failures) are returned as an
// error: the suite only analyzes code that compiles.
func Run(root string, cfg Config) ([]Finding, error) {
	all, err := RunAll(root, cfg)
	if err != nil {
		return nil, err
	}
	return dropSuppressed(all), nil
}

// RunAll is Run including suppressed findings (marked, not dropped) — the
// -json audit view.
func RunAll(root string, cfg Config) ([]Finding, error) {
	pkgs, err := LoadTree(root)
	if err != nil {
		return nil, err
	}
	return AnalyzeAll(pkgs, cfg), nil
}

// Analyze applies the suite to already-loaded packages and returns the
// surviving (non-suppressed) findings.
func Analyze(pkgs []*Package, cfg Config) []Finding {
	return dropSuppressed(AnalyzeAll(pkgs, cfg))
}

// AnalyzeAll applies the suite to already-loaded packages, in order, and
// returns every finding — suppressed ones marked — in position order.
func AnalyzeAll(pkgs []*Package, cfg Config) []Finding {
	var all []Finding
	for _, p := range pkgs {
		all = append(all, analyzePackage(p, cfg)...)
	}
	sortFindings(all)
	return all
}

// analyzePackage applies every analyzer to one package, marking suppressed
// findings instead of dropping them.
func analyzePackage(p *Package, cfg Config) []Finding {
	sup := collectSuppressions(p)
	all := append([]Finding(nil), sup.broken...)
	for _, a := range Analyzers() {
		for _, f := range a.Run(p, cfg) {
			f.Suppressed = sup.allows(a.Name, f.Pos)
			all = append(all, f)
		}
	}
	return all
}

// sortFindings orders findings by (file, line, column, analyzer, message),
// a total order.
func sortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dropSuppressed filters marked-suppressed findings out.
func dropSuppressed(all []Finding) []Finding {
	out := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
