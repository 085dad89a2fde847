// Package nakedgo enforces the engine's fault-containment invariant: every
// goroutine spawned in production code must be panic-safe. PR 8 bought the
// guarantee that a panicking worker becomes a typed error instead of a dead
// process; this analyzer keeps it true as the codebase grows.
//
// A "go" statement passes if the goroutine provably routes panics somewhere:
//
//   - the spawned function literal's top level defers a recover
//     ("defer func() { if rec := recover(); ... }()"), or
//   - the literal's top level calls a panic-safe function — one whose own
//     body defers a recover at its top level, like the engine's runTrapped
//     wrapper, a worker method with its own recover, or a local closure such
//     as conditional discovery's safeRunWorker — or
//   - the "go" statement directly names such a panic-safe function.
//
// Anything else is a naked goroutine and is flagged. Test files are skipped
// by design: a panicking test goroutine crashing the test binary is the
// desired outcome there. Deliberate exceptions in production code use
// "//lint:allow nakedgo <reason>".
package nakedgo

import (
	"go/ast"
	"go/types"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/astwalk"
)

// New returns the nakedgo analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "nakedgo",
		Doc:  "flags goroutines that neither recover panics nor route through a panic-safe helper (fault-containment contract)",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	safe := collectPanicSafe(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goStmtIsSafe(g, pass.Info, safe) {
				pass.Reportf(g.Pos(), "naked goroutine: the spawned function neither defers a recover nor routes through a panic-safe helper; a panic here kills the process instead of becoming a typed error (wrap the body in a defer/recover, call a trapped helper, or annotate //lint:allow nakedgo <reason>)")
			}
			return true
		})
	}
	return nil
}

// collectPanicSafe indexes every function-shaped object in the package whose
// body opens with a top-level deferred recover: declared functions, methods,
// and local closures bound to a variable.
func collectPanicSafe(pass *analysis.Pass) map[types.Object]bool {
	safe := make(map[types.Object]bool)
	record := func(id *ast.Ident) {
		if obj := pass.Info.Defs[id]; obj != nil {
			safe[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			safe[obj] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && astwalk.HasTopLevelRecover(n.Body, pass.Info) {
					record(n.Name)
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && astwalk.HasTopLevelRecover(lit.Body, pass.Info) {
						record(id)
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range n.Values {
					if lit, ok := rhs.(*ast.FuncLit); ok && i < len(n.Names) && astwalk.HasTopLevelRecover(lit.Body, pass.Info) {
						record(n.Names[i])
					}
				}
			}
			return true
		})
	}
	return safe
}

func goStmtIsSafe(g *ast.GoStmt, info *types.Info, safe map[types.Object]bool) bool {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if astwalk.HasTopLevelRecover(fun.Body, info) {
			return true
		}
		// A top-level call (or defer) into a panic-safe function also
		// contains the goroutine: its panics never unwind past the helper.
		for _, stmt := range fun.Body.List {
			var call *ast.CallExpr
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil {
				continue
			}
			if obj := astwalk.Callee(call, info); obj != nil && safe[obj] {
				return true
			}
		}
		return false
	default:
		obj := astwalk.Callee(g.Call, info)
		return obj != nil && safe[obj]
	}
}
