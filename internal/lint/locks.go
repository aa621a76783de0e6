package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The locks analyzer guards the two sync mistakes the -race soaks catch
// only when the interleaving cooperates:
//
//   - Lock with no matching Unlock, or a return statement between a Lock
//     and its Unlock with no deferred Unlock in scope: the early-return
//     path leaves the mutex held forever;
//   - WaitGroup.Add inside the goroutine it gates: the spawner can reach
//     Wait before the goroutine is scheduled, so Wait returns early. Add
//     must happen before the go statement, in the spawning goroutine.
//
// A sync primitive copied by value is go vet's copylocks check, which
// TestVetCopylocks runs over the module.
//
// Lock/Unlock matching is per-object (the field or variable the method is
// called on) and per-kind (Lock pairs with Unlock, RLock with RUnlock),
// scanning each function body as its own scope.

func runLocks(p *Package, cfg Config) []Finding {
	var out []Finding
	for _, body := range functionBodies(p) {
		out = append(out, lockPairFindings(p, body)...)
	}
	out = append(out, addInsideGoroutine(p)...)
	return out
}

// isWaitGroup reports whether t is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// functionBodies yields every function scope in the package: each FuncDecl
// body and each FuncLit body, analyzed independently.
func functionBodies(p *Package) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
	}
	return bodies
}

// lockEvent is one Lock/Unlock call inside a function scope.
type lockEvent struct {
	obj  types.Object // the mutex the method is called on
	read bool         // RLock/RUnlock
	pos  token.Pos
	node ast.Node
}

// lockPairFindings checks one function scope for Lock calls with no
// matching Unlock, or with a return statement on the path between Lock and
// the first matching Unlock. A deferred Unlock for the same mutex (direct
// or inside a deferred closure) clears every Lock of that mutex.
func lockPairFindings(p *Package, body *ast.BlockStmt) []Finding {
	type pairKey struct {
		obj  types.Object
		read bool
	}
	var locks, unlocks []lockEvent
	deferred := map[pairKey]bool{}
	var returns []token.Pos

	classify := func(call *ast.CallExpr) (ev lockEvent, isLock, isUnlock bool) {
		obj, name := syncMethodTarget(p.Info, call)
		if obj == nil {
			return
		}
		switch name {
		case "Lock", "RLock":
			return lockEvent{obj: obj, read: name == "RLock", pos: call.Pos(), node: call}, true, false
		case "Unlock", "RUnlock":
			return lockEvent{obj: obj, read: name == "RUnlock", pos: call.Pos(), node: call}, false, true
		}
		return
	}

	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, analyzed on its own
		case *ast.DeferStmt:
			if ev, _, isUnlock := classify(n.Call); isUnlock {
				deferred[pairKey{ev.obj, ev.read}] = true
				return false
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// A deferred closure's unlocks count as deferred here.
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if ev, _, isUnlock := classify(call); isUnlock {
							deferred[pairKey{ev.obj, ev.read}] = true
						}
					}
					return true
				})
				return false
			}
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.CallExpr:
			if ev, isLock, isUnlock := classify(n); isLock {
				locks = append(locks, ev)
			} else if isUnlock {
				unlocks = append(unlocks, ev)
			}
		}
		return true
	}
	ast.Inspect(body, scan)

	var out []Finding
	for _, l := range locks {
		lockName, unlockName := "Lock", "Unlock"
		if l.read {
			lockName, unlockName = "RLock", "RUnlock"
		}
		if deferred[pairKey{l.obj, l.read}] {
			continue
		}
		var first token.Pos
		for _, u := range unlocks {
			if u.obj == l.obj && u.read == l.read && u.pos > l.pos {
				first = u.pos
				break
			}
		}
		if first == token.NoPos {
			out = append(out, Finding{
				Pos: p.Fset.Position(l.pos), Analyzer: "locks",
				Message: fmt.Sprintf("%s.%s with no matching %s in this function; use defer %s.%s()",
					l.obj.Name(), lockName, unlockName, l.obj.Name(), unlockName),
			})
			continue
		}
		for _, r := range returns {
			if r > l.pos && r < first {
				out = append(out, Finding{
					Pos: p.Fset.Position(l.pos), Analyzer: "locks",
					Message: fmt.Sprintf("return between %s.%s and its %s leaves the mutex held; use defer %s.%s()",
						l.obj.Name(), lockName, unlockName, l.obj.Name(), unlockName),
				})
				break
			}
		}
	}
	return out
}

// syncMethodTarget resolves a call of the form x.M() where M is a method
// of sync.Mutex/RWMutex/WaitGroup (including promoted embeddings),
// returning the object x resolves to and the method name. The object is
// the innermost field or variable the method is invoked on, so two locks
// on the same field pair up even through different receivers.
func syncMethodTarget(info *types.Info, call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	var obj types.Object
	switch x := sel.X.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	}
	if obj == nil {
		return nil, ""
	}
	return obj, fn.Name()
}

// addInsideGoroutine flags WaitGroup.Add calls lexically inside the
// function literal a go statement runs: the spawner may reach Wait before
// the goroutine executes Add.
func addInsideGoroutine(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj, name := syncMethodTarget(p.Info, call); obj != nil && name == "Add" {
					if isWaitGroup(derefType(objType(obj))) {
						out = append(out, Finding{
							Pos: p.Fset.Position(call.Pos()), Analyzer: "locks",
							Message: fmt.Sprintf("%s.Add inside the goroutine it gates; call Add before the go statement", obj.Name()),
						})
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

// objType returns the object's type (nil-safe).
func objType(obj types.Object) types.Type {
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
