// Package goroleak requires every goroutine in non-test code to have a
// visible shutdown path. The serve layer's shard workers and shared
// ticker all terminate through an explicit signal; a `go` statement
// without one is how hosts accumulate goroutines across group churn
// until the process dies — invisible in unit tests, fatal at a million
// groups.
//
// For each go statement the analyzer resolves the spawned callable — an
// inline function literal, or a declared function/method via the
// program's call graph — and searches its body (and, one level deep,
// the bodies of the in-program functions it calls) for a termination
// signal:
//
//   - a select statement (the done/ctx-channel pattern);
//   - a channel receive (<-done, <-ctx.Done(), a ticker drain);
//   - a for-range over a channel (the worker-FIFO pattern: close(ch)
//     ends the loop);
//   - WaitGroup accounting (Done or Wait on a sync.WaitGroup).
//
// Sending on a channel deliberately does not count: a sender blocked on
// an abandoned receiver is precisely the leak this analyzer exists to
// catch. Goroutines that are bounded for reasons the analyzer cannot
// see — a loop that exits when its listener closes, a process-lifetime
// server — carry //gkalint:bounded <why> at the go statement.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"idgka/internal/lint/analysis"
)

// searchDepth bounds the callee-body search: the spawned body itself
// plus one level of in-program callees.
const searchDepth = 2

// Analyzer reports go statements with no visible shutdown path.
var Analyzer = &analysis.Analyzer{
	Name:       "goroleak",
	Doc:        "every goroutine needs a visible shutdown path — select/done receive, range over a channel, or WaitGroup accounting; waive with //gkalint:bounded (PR 9)",
	WaiverVerb: "bounded",
	Run:        run,
}

func run(pass *analysis.Pass) error {
	pkg := pass.Prog.PackageOf(pass.Pkg)
	if pkg == nil {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGo(pass, pkg, g)
			return true
		})
	}
	return nil
}

func checkGo(pass *analysis.Pass, pkg *analysis.Package, g *ast.GoStmt) {
	target := pass.Prog.Callee(pkg, g.Call)
	if target == nil {
		pass.Reportf(g.Pos(), "goroutine target is not statically resolvable (func value or interface method); document its shutdown path with //gkalint:bounded <reason>")
		return
	}
	seen := map[*analysis.Func]bool{}
	if !hasShutdownPath(pass.Prog, target, searchDepth, seen) {
		pass.Reportf(g.Pos(), "goroutine has no visible shutdown path (no select, done-channel receive, range over a channel, or WaitGroup accounting); make termination explicit or waive with //gkalint:bounded <reason>")
	}
}

// hasShutdownPath searches fn's body, then (depth permitting) the
// bodies of its in-program callees, for a termination signal.
func hasShutdownPath(prog *analysis.Program, fn *analysis.Func, depth int, seen map[*analysis.Func]bool) bool {
	if fn == nil || fn.Body() == nil || seen[fn] {
		return false
	}
	seen[fn] = true
	info := fn.Pkg.Info
	found := false
	var callees []*ast.CallExpr
	ast.Inspect(fn.Body(), func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupAccounting(info, n) {
				found = true
				return false
			}
			callees = append(callees, n)
		}
		return !found
	})
	if found {
		return true
	}
	if depth <= 1 {
		return false
	}
	for _, call := range callees {
		if callee := prog.Callee(fn.Pkg, call); callee != nil {
			if hasShutdownPath(prog, callee, depth-1, seen) {
				return true
			}
		}
	}
	return false
}

// isWaitGroupAccounting matches Done/Wait on a sync.WaitGroup.
func isWaitGroupAccounting(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Wait") {
		return false
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return analysis.NamedName(t) == "sync.WaitGroup"
}
