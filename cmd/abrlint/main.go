// Command abrlint runs the repository's project-specific static-analysis
// suite (internal/lint): the nine analyzers determinism, units, nopanic,
// floateq, errdrop, hotalloc, locks, goroleak and atomicmix over every
// package under ./internal/... and ./cmd/....
//
// Usage:
//
//	abrlint [-root dir] [-json] [-counts] [./...]
//
// Findings print as `file:line: [analyzer] message`; with -json, as one
// JSON object per line (file, line, col, analyzer, message, suppressed),
// including suppressed findings so tooling can audit the active waiver
// set. -counts prints a per-analyzer finding tally to stderr so a
// regression is attributable to the analyzer that caught it. The exit
// status is non-zero when any finding survives suppression. The suite is
// part of the tier-1 gate (`make check`), next to go vet.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cava/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	jsonOut := flag.Bool("json", false, "print findings as JSON Lines (including suppressed ones, marked)")
	counts := flag.Bool("counts", false, "print a per-analyzer finding tally to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: abrlint [-root dir] [-json] [-counts] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "abrlint: only the ./... pattern is supported (got %q)\n", arg)
			os.Exit(2)
		}
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "abrlint: %v\n", err)
			os.Exit(2)
		}
	}
	all, err := lint.RunAll(dir, lint.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "abrlint: %v\n", err)
		os.Exit(2)
	}
	for i := range all {
		if rel, err := filepath.Rel(dir, all[i].Pos.Filename); err == nil {
			all[i].Pos.Filename = rel
		}
	}

	// The exit status rests only on findings that survive suppression.
	var active []lint.Finding
	for _, f := range all {
		if !f.Suppressed {
			active = append(active, f)
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintf(os.Stderr, "abrlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range active {
			fmt.Println(f)
		}
	}
	if *counts {
		printCounts(active)
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "abrlint: %d finding(s)\n", len(active))
		os.Exit(1)
	}
}

// printCounts writes the per-analyzer tally of active findings to stderr,
// with every analyzer listed (zeroes included) so a clean run still shows
// which checks ran.
func printCounts(active []lint.Finding) {
	tally := map[string]int{}
	for _, name := range lint.AnalyzerNames() {
		tally[name] = 0
	}
	for _, f := range active {
		tally[f.Analyzer]++
	}
	names := make([]string, 0, len(tally))
	for name := range tally {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "abrlint: %-12s %d\n", name, tally[name])
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
