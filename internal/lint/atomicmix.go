package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The atomicmix analyzer guards the lock-free structures (the telemetry
// registry's counters, the fleet gauges) against the two ways atomic
// discipline silently degrades:
//
//   - a variable or field that is the target of a sync/atomic function
//     call (atomic.AddUint64(&x.n, 1), atomic.LoadInt64(&v), …) but is
//     also read or written plainly elsewhere in the package: the plain
//     access races with the atomic ones, and the race detector only sees
//     it when both sides fire;
//   - any use of atomic.Value, the one typed atomic without a noCopy
//     marker: go vet's copylocks check (TestVetCopylocks) catches every
//     other typed atomic copied by value, but not this one.
//
// The fix for the first is always to pick one discipline — the typed
// atomics make the atomic one self-enforcing; the fix for the second is
// atomic.Pointer[T], which copylocks can check.

func runAtomicMix(p *Package, cfg Config) []Finding {
	out := atomicValueFindings(p)
	out = append(out, mixedAccessFindings(p)...)
	return out
}

// atomicValueFindings flags every reference to the atomic.Value type.
func atomicValueFindings(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			tn, ok := p.Info.Uses[id].(*types.TypeName)
			if ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync/atomic" && tn.Name() == "Value" {
				out = append(out, Finding{
					Pos: p.Fset.Position(id.Pos()), Analyzer: "atomicmix",
					Message: "atomic.Value has no noCopy marker, so go vet cannot see it copied; use atomic.Pointer[T]",
				})
			}
			return true
		})
	}
	return out
}

// inSpans reports whether pos falls inside any of the source spans.
func inSpans(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// mixedAccessFindings flags package variables and fields accessed both
// through sync/atomic function calls and plainly.
func mixedAccessFindings(p *Package) []Finding {
	// Pass 1: every object handed by address to a sync/atomic function,
	// and the source spans of those calls (uses inside them are atomic).
	targets := map[types.Object]bool{}
	var spans [][2]token.Pos
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || pkgNameOf(p.Info, sel.X) != "sync/atomic" {
				return true
			}
			spans = append(spans, [2]token.Pos{call.Pos(), call.End()})
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if obj := addressedObject(p.Info, un.X); obj != nil {
					targets[obj] = true
				}
			}
			return true
		})
	}
	if len(targets) == 0 {
		return nil
	}
	// Pass 2: any use of a target outside an atomic call span is a plain
	// access racing the atomic ones.
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil || !targets[obj] || inSpans(spans, id.Pos()) {
				return true
			}
			out = append(out, Finding{
				Pos: p.Fset.Position(id.Pos()), Analyzer: "atomicmix",
				Message: fmt.Sprintf("%s is accessed atomically elsewhere but plainly here; every access must go through sync/atomic (or migrate to a typed atomic)", obj.Name()),
			})
			return true
		})
	}
	return out
}

// addressedObject resolves the variable or field behind an &expr argument.
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.ParenExpr:
		return addressedObject(info, e.X)
	case *ast.IndexExpr:
		return addressedObject(info, e.X)
	}
	return nil
}
