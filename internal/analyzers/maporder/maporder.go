// Package maporder guards the determinism contract: reports are
// byte-identical across worker counts (TestSchedulerDifferential),
// so no Go map's nondeterministic iteration order may leak into ordered
// output. The sanctioned idiom — used throughout the engine, e.g. collecting
// a slice's condition values — is to drain the map into a slice and sort it
// before anything order-sensitive consumes it.
//
// The analyzer flags, inside any "for ... range m" over a map:
//
//   - a send into a channel: the receiver observes map order directly;
//   - an append to a slice declared outside the loop, unless that slice is
//     later passed to a sort or slices call in the same function — the
//     collect-then-sort idiom.
//
// This is a syntactic approximation of "flows toward a Report, ProgressEvent
// or SSE write": it cannot see across function boundaries, so a collector
// that is sorted by its caller, or an accumulator whose order is genuinely
// irrelevant (a set destined for another map), is annotated
// "//lint:allow maporder <reason>" at the append.
package maporder

import (
	"go/ast"
	"go/types"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/astwalk"
)

// New returns the maporder analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "maporder",
		Doc:  "flags map-iteration order leaking into ordered output (appends without a later sort, channel sends)",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		astwalk.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(rs.X); t == nil || !isMap(t) {
				return true
			}
			checkMapRange(pass, rs, enclosingFuncBody(rs, stack))
			return true
		})
	}
	return nil
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosingFuncBody returns the body of the innermost function containing rs.
func enclosingFuncBody(rs *ast.RangeStmt, stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: the receiver observes nondeterministic map order; collect into a slice, sort, then send (or //lint:allow maporder <reason>)")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				target := appendTarget(pass.Info, n.Lhs[i], rhs)
				if target == nil {
					continue
				}
				if declaredWithin(target, rs.Body) {
					continue // loop-local accumulator dies with the iteration
				}
				if sortedAfter(pass.Info, funcBody, rs, target) {
					continue // the collect-then-sort idiom
				}
				pass.Reportf(rhs.Pos(), "append to %s while ranging over a map, with no later sort in this function: element order is nondeterministic and breaks byte-identical reports; sort %s after the loop, sort it in the caller, or //lint:allow maporder <reason>", target.Name(), target.Name())
			}
		}
		return true
	})
}

// appendTarget returns the object of lhs when the assignment has the shape
// "x = append(x, ...)" with x a slice-typed identifier.
func appendTarget(info *types.Info, lhs, rhs ast.Expr) types.Object {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
		return nil
	}
	return obj
}

func declaredWithin(obj types.Object, body *ast.BlockStmt) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// sortedAfter reports whether obj is passed to a sort.* or slices.* call
// after the range statement, anywhere later in the enclosing function.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if funcBody == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pkgName.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			argFound := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
					argFound = true
					return false
				}
				return true
			})
			if argFound {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
