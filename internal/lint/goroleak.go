package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The goroleak analyzer is the static twin of internal/chaos/leakcheck: it
// flags `go` statements in library (non-main) packages with no visible
// stop mechanism, so a goroutine that would trip the dynamic leak guard is
// named at review time instead of at soak time. A spawn is considered
// stoppable when any of these holds:
//
//   - a WaitGroup.Add call precedes the go statement in the spawning
//     function (the wg.Add(1); go f() idiom — Close/Wait drains it);
//   - the goroutine body receives from a channel, ranges over one, selects,
//     closes one, calls WaitGroup.Done/Wait, or touches a context.Context
//     (worker loops fed by a closable channel, ctx-cancelled loops);
//   - the goroutine body uses a value whose type has Close, Shutdown, Stop,
//     or CloseIdleConnections called on it somewhere in the package (e.g. a
//     goroutine blocked in (*http.Server).ListenAndServe is stopped by the
//     hsrv.Close() in the teardown path — matched by type, not by the
//     specific variable, since teardown often holds its own reference).
//
// For `go f(...)` spawning a function declared in the same package, the
// body of f is inspected; a spawn whose body is out of package can only
// pass via the wg.Add rule or a stoppable argument.

func runGoroleak(p *Package, cfg Config) []Finding {
	if p.IsMain() {
		return nil // commands run to exit; the OS reaps their goroutines
	}
	closeable := closeableTypes(p)
	decls := funcDeclIndex(p)
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, goStmtFindings(p, fd.Body, closeable, decls)...)
		}
	}
	return out
}

// goStmtFindings inspects one function body (including nested literals)
// for unstoppable go statements. The enclosing-body context for the
// wg.Add-before-go rule is the innermost function scope containing the go
// statement.
func goStmtFindings(p *Package, body *ast.BlockStmt, closeable map[string]bool, decls map[*types.Func]*ast.FuncDecl) []Finding {
	var out []Finding
	var inspect func(scope *ast.BlockStmt, n ast.Node)
	inspect = func(scope *ast.BlockStmt, n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m.Body != n { // avoid re-entering the node we started on
					inspect(m.Body, m.Body)
					return false
				}
			case *ast.GoStmt:
				if !goStmtStoppable(p, scope, m, closeable, decls) {
					out = append(out, Finding{
						Pos: p.Fset.Position(m.Pos()), Analyzer: "goroleak",
						Message: "goroutine has no visible stop mechanism (ctx/done channel, WaitGroup, or a Close()d object); leaks past Close",
					})
				}
			}
			return true
		})
	}
	inspect(body, body)
	return out
}

// goStmtStoppable applies the three OK-rules to one go statement.
func goStmtStoppable(p *Package, scope *ast.BlockStmt, g *ast.GoStmt, closeable map[string]bool, decls map[*types.Func]*ast.FuncDecl) bool {
	// Rule 1: wg.Add before the go statement in the spawning scope.
	if wgAddBefore(p, scope, g.Pos()) {
		return true
	}
	// Resolve the goroutine body.
	var gbody ast.Node
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		gbody = fun.Body
	default:
		var obj types.Object
		switch fn := fun.(type) {
		case *ast.Ident:
			obj = p.Info.Uses[fn]
		case *ast.SelectorExpr:
			obj = p.Info.Uses[fn.Sel]
		}
		if tf, ok := obj.(*types.Func); ok {
			if fd := decls[tf]; fd != nil && fd.Body != nil {
				gbody = fd.Body
			}
		}
	}
	if gbody == nil {
		// Out-of-package body: a context or channel argument, a
		// closeable-typed argument, or a closeable receiver (the
		// `go srv.Serve(l)` / `defer srv.Close()` idiom) is the only
		// provable stop handle.
		if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok && exprStoppable(p, sel.X, closeable) {
			return true
		}
		for _, arg := range g.Call.Args {
			if exprStoppable(p, arg, closeable) {
				return true
			}
		}
		return false
	}
	// Rules 2+3 over the resolved body.
	stoppable := false
	ast.Inspect(gbody, func(n ast.Node) bool {
		if stoppable {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				stoppable = true
			}
		case *ast.SelectStmt:
			stoppable = true
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					stoppable = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" &&
				p.Info.Uses[id] == types.Universe.Lookup("close") {
				stoppable = true
			}
			if obj, name := syncMethodTarget(p.Info, n); obj != nil &&
				(name == "Done" || name == "Wait") &&
				isWaitGroup(derefType(objType(obj))) {
				stoppable = true
			}
		case ast.Expr:
			if exprStoppable(p, n, closeable) {
				stoppable = true
			}
		}
		return !stoppable
	})
	return stoppable
}

// wgAddBefore reports a WaitGroup.Add call lexically before pos in the
// scope (not inside a nested function literal).
func wgAddBefore(p *Package, scope *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if n.Pos() >= pos {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, name := syncMethodTarget(p.Info, call); obj != nil && name == "Add" &&
				isWaitGroup(derefType(objType(obj))) {
				found = true
			}
		}
		return true
	})
	return found
}

// exprStoppable reports whether an expression's type is a stop handle: a
// context.Context, a channel, or a type the package registers a
// Close/Shutdown/Stop on.
func exprStoppable(p *Package, e ast.Expr, closeable map[string]bool) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if isContextType(t) {
		return true
	}
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return true
	}
	if closeable[t.String()] || closeable[derefType(t).String()] {
		return true
	}
	return false
}

// isContextType reports context.Context (or an interface embedding it by
// identical type).
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// closeableTypes collects the type strings (value and pointee forms) of
// every receiver the package calls Close, Shutdown, Stop, or
// CloseIdleConnections on — the "registered Close" set goroutine bodies
// are matched against.
func closeableTypes(p *Package) map[string]bool {
	stopNames := map[string]bool{
		"Close": true, "Shutdown": true, "Stop": true, "CloseIdleConnections": true,
	}
	set := map[string]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !stopNames[sel.Sel.Name] {
				return true
			}
			if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
				set[tv.Type.String()] = true
				set[derefType(tv.Type).String()] = true
			}
			return true
		})
	}
	return set
}

// funcDeclIndex maps each declared function object to its declaration, so
// `go f()` can resolve to f's body when f lives in this package.
func funcDeclIndex(p *Package) map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if tf, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				idx[tf] = fd
			}
		}
	}
	return idx
}
