package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// The metricname analyzer is the telemetry-facing face of the units
// convention: every name registered through telemetry.Registry's Counter,
// Gauge, and Histogram methods (and CounterFunc and GaugeFunc, under the
// Counter and Gauge rules) must be Prometheus-conformant, because the
// /metrics endpoint exposes them verbatim and downstream dashboards key on
// them. The rules:
//
//   - names are snake_case: lowercase words joined by single underscores;
//   - the name must be a compile-time constant string, so the convention
//     is checkable at all (per-label cardinality belongs in labels, not in
//     generated names);
//   - counters end in `_total` (the Prometheus counter convention);
//   - gauges must NOT end in `_total` (a gauge is a level, not a count);
//   - histograms end in an explicit unit: `_seconds`, `_sec`, `_ms`,
//     `_bytes`, or `_bits`;
//   - a gauge whose final word is a bare quantity stem (the units
//     analyzer's list: size, duration, latency, …) is unit-ambiguous and
//     needs the unit spelled out (`_bytes`, `_seconds`, …).
//
// Receivers are matched by type name (Registry) and package name
// (telemetry), so fixtures exercise the analyzer with a stub package.

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// histogramUnits are the accepted histogram unit suffixes.
var histogramUnits = []string{"_seconds", "_sec", "_ms", "_bytes", "_bits"}

func runMetricName(p *Package, cfg Config) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryMetricKind(p.Info, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			flag := func(format string, args ...any) {
				out = append(out, Finding{
					Pos: p.Fset.Position(call.Args[0].Pos()), Analyzer: "metricname",
					Message: fmt.Sprintf(format, args...),
				})
			}
			name, isConst := constString(p.Info, call.Args[0])
			if !isConst {
				flag("%s name must be a compile-time constant string; put per-instance dimensions in labels", kind)
				return true
			}
			if !metricNameRe.MatchString(name) {
				flag("%s name %q is not Prometheus snake_case (lowercase words joined by single underscores)", kind, name)
				return true
			}
			switch kind {
			case "Counter":
				if !strings.HasSuffix(name, "_total") {
					flag("counter name %q must end in _total", name)
				}
			case "Gauge":
				if strings.HasSuffix(name, "_total") {
					flag("gauge name %q must not end in _total; a gauge is a level, not a count", name)
				} else if stem := bareStem(name); stem != "" {
					flag("gauge name %q ends in the bare quantity stem %q; spell out the unit (_bytes, _seconds, ...)", name, stem)
				}
			case "Histogram":
				if !hasAnySuffix(name, histogramUnits) {
					flag("histogram name %q must end in a unit suffix (%s)", name, strings.Join(histogramUnits, ", "))
				}
			}
			return true
		})
	}
	return out
}

// registryMetricKind recognizes a Counter/Gauge/Histogram call on a
// telemetry.Registry receiver (matched by type and package *name*, so the
// fixture's stub telemetry package exercises the analyzer too). The
// function forms report the kind they register: CounterFunc is a Counter.
func registryMetricKind(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram", "CounterFunc", "GaugeFunc":
	default:
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "telemetry" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	named, ok := derefType(sig.Recv().Type()).(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return "", false
	}
	return strings.TrimSuffix(sel.Sel.Name, "Func"), true
}

// constString evaluates a compile-time constant string expression.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// bareStem returns the name's final underscore word when it is a bare
// quantity stem from the units analyzer's list, else "".
func bareStem(name string) string {
	last := name
	if i := strings.LastIndexByte(name, '_'); i >= 0 {
		last = name[i+1:]
	}
	if unitStems[last] {
		return last
	}
	return ""
}

// hasAnySuffix reports whether s ends in any of the suffixes.
func hasAnySuffix(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}
