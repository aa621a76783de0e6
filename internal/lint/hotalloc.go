package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The hotalloc analyzer guards the zero-alloc hot paths the fleet engine's
// scale rests on: the player chunk-step core, the fleet drain/shard loop
// and its event heap, and the bandwidth predictor ring all run once per
// simulated event, and a fleet of 10⁵–10⁶ live sessions only fits while
// those paths allocate nothing in the steady state. The dynamic guards
// (testing.AllocsPerRun) catch a regression after the fact; this analyzer
// names the construct that caused it at review time.
//
// Inside functions named by Config.HotPathFuncs it flags every
// allocation-inducing construct:
//
//   - function literals (a closure captures its environment on the heap;
//     bind a method value once at setup instead);
//   - make and new calls (fresh backing memory per event);
//   - append calls (a grow re-allocates the backing array; preallocate to
//     capacity at init and waive the call with the reason);
//   - fmt.* calls (formatting boxes every variadic argument into an any);
//   - conversions to an interface type, and concrete arguments passed to
//     interface-typed parameters (interface boxing);
//   - string <-> []byte / []rune conversions (each copies the payload);
//   - taking the address of a composite literal (escapes to the heap).
//
// Provably amortized constructs — appends into buffers preallocated at
// init — carry a `//lint:allow hotalloc <reason>` naming the preallocation
// site; everything else gets fixed, not waived.

func runHotAlloc(p *Package, cfg Config) []Finding {
	hot := hotFuncsFor(p.Path, cfg.HotPathFuncs)
	if len(hot) == 0 {
		return nil
	}
	var out []Finding
	flag := func(n ast.Node, msg string) {
		out = append(out, Finding{
			Pos: p.Fset.Position(n.Pos()), Analyzer: "hotalloc", Message: msg,
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hot[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					flag(n, "closure allocates on the hot path; bind a method value or func variable once at setup")
					return false // the literal runs off the per-event path
				case *ast.UnaryExpr:
					if _, lit := n.X.(*ast.CompositeLit); lit && n.Op.String() == "&" {
						flag(n, "address of a composite literal escapes to the heap on the hot path; reuse a preallocated value")
					}
				case *ast.CallExpr:
					out = append(out, hotCallFindings(p, n)...)
				}
				return true
			})
		}
	}
	return out
}

// hotFuncsFor resolves the "pkg-suffix:FuncName" hot-path entries that
// apply to one package into a function-name set.
func hotFuncsFor(path string, entries []string) map[string]bool {
	var hot map[string]bool
	for _, e := range entries {
		i := strings.LastIndex(e, ":")
		if i < 0 || !pkgSelected(path, []string{e[:i]}) {
			continue
		}
		if hot == nil {
			hot = map[string]bool{}
		}
		hot[e[i+1:]] = true
	}
	return hot
}

// hotCallFindings classifies one call expression on a hot path.
func hotCallFindings(p *Package, call *ast.CallExpr) []Finding {
	var out []Finding
	flag := func(msg string) {
		out = append(out, Finding{
			Pos: p.Fset.Position(call.Pos()), Analyzer: "hotalloc", Message: msg,
		})
	}

	// Builtins: append grows, make/new allocate by definition.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch {
		case id.Name == "append" && p.Info.Uses[id] == types.Universe.Lookup("append"):
			flag("append may grow the backing array on the hot path; preallocate capacity at init (waive with the preallocation site as the reason)")
		case (id.Name == "make" || id.Name == "new") && p.Info.Uses[id] == types.Universe.Lookup(id.Name):
			flag(id.Name + " allocates on the hot path; allocate once at init and reuse")
		}
	}

	// fmt.* boxes every variadic argument and allocates the result.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pkgNameOf(p.Info, sel.X) == "fmt" {
		flag(fmt.Sprintf("fmt.%s allocates and boxes its arguments on the hot path; move formatting off the per-event path", sel.Sel.Name))
		return out
	}

	// Conversions: T(x) where the call's Fun is a type.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		out = append(out, conversionFindings(p, call, tv.Type)...)
		return out
	}

	// Concrete arguments passed to interface-typed parameters box.
	out = append(out, boxingFindings(p, call)...)
	return out
}

// conversionFindings flags allocating conversions: to an interface type,
// or between string and byte/rune slices.
func conversionFindings(p *Package, call *ast.CallExpr, target types.Type) []Finding {
	argTV, ok := p.Info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return nil
	}
	pos := p.Fset.Position(call.Pos())
	if types.IsInterface(target.Underlying()) && !types.IsInterface(argTV.Type.Underlying()) {
		return []Finding{{Pos: pos, Analyzer: "hotalloc",
			Message: fmt.Sprintf("conversion of %s to interface type %s boxes on the hot path", argTV.Type, target)}}
	}
	if stringSliceConv(target, argTV.Type) || stringSliceConv(argTV.Type, target) {
		return []Finding{{Pos: pos, Analyzer: "hotalloc",
			Message: fmt.Sprintf("conversion %s -> %s copies the payload on the hot path", argTV.Type, target)}}
	}
	return nil
}

// stringSliceConv reports a string -> []byte/[]rune shape (either
// direction is checked by calling it twice with swapped arguments).
func stringSliceConv(from, to types.Type) bool {
	fb, ok := from.Underlying().(*types.Basic)
	if !ok || fb.Info()&types.IsString == 0 {
		return false
	}
	ts, ok := to.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	eb, ok := ts.Elem().Underlying().(*types.Basic)
	return ok && (eb.Kind() == types.Byte || eb.Kind() == types.Rune ||
		eb.Kind() == types.Uint8 || eb.Kind() == types.Int32)
}

// boxingFindings flags concrete (non-interface) arguments passed to
// interface-typed parameters: each such pass may heap-allocate the boxed
// value. Untyped nil never boxes.
func boxingFindings(p *Package, call *ast.CallExpr) []Finding {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []Finding
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type() // x... passes the slice itself
			} else {
				pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at, ok := p.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		out = append(out, Finding{
			Pos: p.Fset.Position(arg.Pos()), Analyzer: "hotalloc",
			Message: fmt.Sprintf("passing %s to an interface-typed parameter boxes on the hot path", at.Type),
		})
	}
	return out
}
