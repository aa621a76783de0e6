// Package cliutil holds the helpers shared by the command-line tools:
// trace specs ("lte:3", "fcc:10", "const:2.5", "mahimahi:<path>"),
// CLI-name lookups over the scheme roster (sim.Roster), the output-path
// convention ("-" is stdout) and the flags-only command line.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cava/internal/abr"
	"cava/internal/sim"
	"cava/internal/trace"
)

// ParseTrace resolves a trace spec:
//
//	lte:<idx>        generated LTE trace
//	fcc:<idx>        generated FCC trace
//	const:<mbps>     constant-bandwidth trace (20 minutes)
//	mahimahi:<path>  mm-link packet log from disk
func ParseTrace(spec string) (*trace.Trace, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("trace spec %q: want lte:<idx>, fcc:<idx>, const:<mbps>, or mahimahi:<path>", spec)
	}
	switch parts[0] {
	case "lte", "fcc":
		i, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		if i < 0 {
			return nil, fmt.Errorf("trace spec %q: negative index", spec)
		}
		if parts[0] == "lte" {
			return trace.GenLTE(i), nil
		}
		return trace.GenFCC(i), nil
	case "const":
		mbps, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		if err := NonNegative("rate", mbps); err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		if mbps <= 0 {
			return nil, fmt.Errorf("trace spec %q: non-positive rate", spec)
		}
		return trace.Constant(spec, mbps*1e6, 1200, 1), nil
	case "mahimahi":
		f, err := os.Open(parts[1])
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		defer f.Close()
		return trace.ReadMahimahi(f, parts[1], 1)
	default:
		return nil, fmt.Errorf("unknown trace family %q", parts[0])
	}
}

// ParseCorpus resolves a comma-separated trace-corpus spec into a trace
// set. Each element names a family and a count (unlike ParseTrace, where
// the number is an index):
//
//	lte:<n>          the first n generated LTE traces
//	fcc:<n>          the first n generated FCC traces
//	const:<mbps>     one constant-bandwidth trace (20 minutes)
//	mahimahi:<path>  one mm-link packet log from disk
//
// "lte:40,fcc:20" is a 60-trace mixed corpus. Order is preserved, so a
// spec always produces the same corpus in the same order.
func ParseCorpus(spec string) ([]*trace.Trace, error) {
	var out []*trace.Trace
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fam, arg, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("corpus spec %q: want lte:<n>, fcc:<n>, const:<mbps>, or mahimahi:<path>", part)
		}
		switch fam {
		case "lte", "fcc":
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("corpus spec %q: want a positive trace count", part)
			}
			if fam == "lte" {
				out = append(out, trace.GenLTESet(n)...)
			} else {
				out = append(out, trace.GenFCCSet(n)...)
			}
		default:
			tr, err := ParseTrace(part)
			if err != nil {
				return nil, err
			}
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus spec %q: no traces", spec)
	}
	return out, nil
}

// Scheme resolves a CLI scheme name to its roster scheme (see
// sim.Roster), labelled with the algorithm's own name as result tables
// print it. An unknown name's error lists the valid ones.
func Scheme(name string) (abr.Scheme, error) {
	for _, e := range sim.Roster() {
		if e.CLI == name {
			return e.Scheme, nil
		}
	}
	return abr.Scheme{}, fmt.Errorf("unknown scheme %q (have %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeByName resolves a CLI scheme name to its factory.
func SchemeByName(name string) (abr.Factory, error) {
	sc, err := Scheme(name)
	return sc.New, err
}

// SchemeNames lists the CLI scheme names in sorted order.
func SchemeNames() []string {
	var names []string
	for _, e := range sim.Roster() {
		names = append(names, e.CLI)
	}
	return names
}

// WriteOutput runs write on the file at path, created or truncated, or on
// stdout when path is "-". It returns write's error, else the file's Close
// error, so a failed final write is reported rather than lost behind a
// deferred Close.
func WriteOutput(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// NonNegative returns an error naming what unless v is a finite number of
// at least zero. NaN compares false with every bound, so a bare `v < 0`
// check lets it through.
func NonNegative(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s %g: want a finite, non-negative number", what, v)
	}
	return nil
}

// RejectArgs exits 2 with one line on stderr when the command line holds a
// positional argument: the flag package stops at the first one, so every
// flag after it would be ignored silently. Call it right after flag.Parse.
func RejectArgs(cmd string) {
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q (the command takes flags only)\n", cmd, flag.Arg(0))
		os.Exit(2)
	}
}
