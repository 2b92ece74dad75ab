// Package blockunderlock reports blocking operations executed while a
// mutex is held — the composition of boundedwait's blocking-site
// catalogue (channel operations outside escaped selects, deadline-less
// connection I/O, sync.WaitGroup.Wait) with the interprocedural held
// set. A helper that parks the goroutine while a caller holds the
// member or shard mutex is the PR 4/PR 5 bug class before it ships:
// every other goroutine needing that lock wedges behind a wait that may
// never end.
//
// The held set comes from the shared lock engine, so the lock may be
// taken by a helper, a bound method value, or the *Locked calling
// contract (a blocking operation inside a fooLocked method blocks under
// whatever lock the caller holds). Blocking reached through a callee is
// reported at the call site with the chain that gets there, including
// the conservative implementer union behind interface calls.
//
// Exemptions mirror boundedwait: select cases with an escape hatch,
// inherently bounded receives, connection I/O in a function that arms a
// deadline, and sync.Cond.Wait (it atomically releases the mutex it
// rides on — the one wait that is safe under a lock). Deliberate sites
// carry //gkalint:blocked <why>.
package blockunderlock

import (
	"go/ast"
	"go/token"
	"strings"

	"idgka/internal/lint/analysis"
)

// Analyzer reports blocking operations under a held mutex.
var Analyzer = &analysis.Analyzer{
	Name:       "blockunderlock",
	Doc:        "no blocking operation (channel op, deadline-less conn I/O, WaitGroup.Wait) while a mutex is held, directly or through any call chain (PR 4/PR 5)",
	WaiverVerb: "blocked",
	Run:        run,
}

func run(pass *analysis.Pass) error {
	pkg := pass.Prog.PackageOf(pass.Pkg)
	if pkg == nil {
		return nil
	}
	locks := pass.Prog.Locks()
	for _, fn := range pass.Prog.Funcs() {
		if fn.Pkg != pkg || fn.Lit != nil || fn.Body() == nil {
			continue // literals are reached through their enclosing walk
		}
		fn := fn
		armed := analysis.ArmsDeadline(fn.Body())
		locks.Walk(fn, contractSeed(fn), &analysis.LockVisitor{
			Blocked: func(pos token.Pos, desc string, kind analysis.BlockKind, held analysis.HeldSet) {
				if len(held) == 0 {
					return
				}
				pass.Reportf(pos, "%s while holding %s; release the lock first or waive with //gkalint:blocked <reason>", desc, held.Describe())
			},
			Call: func(call *ast.CallExpr, callee *analysis.Func, held analysis.HeldSet) {
				if len(held) == 0 {
					return
				}
				for _, target := range locks.CallTargets(pkg, call, callee) {
					if target == fn {
						continue
					}
					b := locks.FnBlock(target)
					if b == nil || (b.Kind == analysis.BlockIO && armed) {
						continue
					}
					via := target.ShortName()
					if b.Via != "" {
						via += " → " + b.Via
					}
					pass.Reportf(call.Pos(), "call may block (%s, via %s) while holding %s; release the lock first or waive with //gkalint:blocked <reason>", b.Desc, via, held.Describe())
					return // one report per call site
				}
			},
		})
	}
	return nil
}

// contractSeed models the *Locked naming contract: the body runs under
// a caller-held lock on the receiver, so blocking inside it blocks
// under that lock even though no acquisition is in sight.
func contractSeed(fn *analysis.Func) analysis.HeldSet {
	if !strings.HasSuffix(fn.Decl.Name.Name, "Locked") || !fn.IsMethod() {
		return nil
	}
	recv := "receiver"
	if list := fn.Decl.Recv.List; len(list) > 0 && len(list[0].Names) > 0 {
		recv = list[0].Names[0].Name
	}
	return analysis.HeldSet{recv + ".(caller lock)": {Mode: analysis.LockWrite}}
}
