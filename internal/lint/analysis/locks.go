package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the whole-program lock engine shared by the concurrency
// analyzers (lockorder v2, blockunderlock, lockcycle). Every function
// gets a summary — the
// locks it net-acquires or net-releases on behalf of its caller, the
// locks it may transitively acquire anywhere beneath it, and whether it
// may block — iterated to a bounded fixpoint so recursion converges.
// On top of the summaries, a source-order walker maintains the held
// lock set through helpers, function literals, and method values
// instead of discarding it at every call boundary (the v1 lockorder
// limitation that forced //gkalint:unlocked waivers exactly where the
// risk lives).
//
// Deliberate approximations, documented in docs/STATIC-ANALYSIS.md:
// held keys are expression paths ("mb.mu", "s.mb.mu") so aliasing is
// invisible; a lock acquired only on one branch does not propagate out
// of the function; interface calls and function-typed parameters do not
// carry held-set effects (only blocking and acquisition summaries, via
// the conservative implementer union); and escaping function literals
// inherit the held set at their creation site — the closure usually
// runs either in place (sort.Search) or on a fresh goroutine, and the
// go-statement case is walked separately with an empty held set.

// A LockMode distinguishes exclusive from read-shared acquisition.
type LockMode int

const (
	// LockRead is an RLock acquisition.
	LockRead LockMode = iota + 1
	// LockWrite is an exclusive Lock acquisition.
	LockWrite
)

func (m LockMode) String() string {
	if m == LockRead {
		return "RLock"
	}
	return "Lock"
}

// HeldInfo describes one held lock: the mode it is held in and the
// type-level canonical name of the mutex ("pkgpath.Type.field" for a
// struct-field mutex, "pkgpath.var" for a package-level one, "" for a
// local the graph cannot name).
type HeldInfo struct {
	Mode  LockMode
	Canon string
}

// A HeldSet maps in-function lock expression paths (types.ExprString of
// the mutex expression, e.g. "mb.mu" or "s.mb.mu") to how they are held.
type HeldSet map[string]HeldInfo

// Copy returns an independent copy, used for branch bodies so an
// early-return Unlock inside an if-branch does not leak out.
func (h HeldSet) Copy() HeldSet {
	c := make(HeldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// Describe renders the held set for diagnostics, sorted, with canonical
// names where known: "mb.mu (idgka.Member.mu)".
func (h HeldSet) Describe() string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		if c := h[k].Canon; c != "" && c != k {
			parts = append(parts, k+" ("+c+")")
		} else {
			parts = append(parts, k)
		}
	}
	return strings.Join(parts, ", ")
}

// A BlockSite is a (possibly transitive) blocking operation: where it
// is, what it does, and the call chain that reaches it.
type BlockSite struct {
	Pos  token.Pos
	Desc string
	Via  string // call chain from the summarized function, "" if direct
	Kind BlockKind
}

// heldMeta is a summary-side held lock: mode plus canonical name.
type heldMeta struct {
	mode  LockMode
	canon string
}

// acqSite records one (possibly transitive) lock acquisition for the
// global graph.
type acqSite struct {
	pos  token.Pos
	pkg  *Package
	via  string
	mode LockMode
}

// A lockSummary is one function's lock behaviour as seen from call
// sites.
type lockSummary struct {
	exitHeld  map[string]heldMeta // "#i[.path]" net-acquired at exit
	exitFreed map[string]bool     // "#i[.path]" caller locks net-released at exit
	acquires  map[string]acqSite  // canonical name -> transitive acquisition
	block     *BlockSite          // first transitive unescaped blocking op
}

func newLockSummary() *lockSummary {
	return &lockSummary{
		exitHeld:  map[string]heldMeta{},
		exitFreed: map[string]bool{},
		acquires:  map[string]acqSite{},
	}
}

func (s *lockSummary) recordAcquire(canon string, at acqSite) {
	if _, ok := s.acquires[canon]; !ok {
		s.acquires[canon] = at
	}
}

func lockSummaryEqual(a, b *lockSummary) bool {
	if len(a.exitHeld) != len(b.exitHeld) || len(a.exitFreed) != len(b.exitFreed) || len(a.acquires) != len(b.acquires) {
		return false
	}
	for k, v := range a.exitHeld {
		if b.exitHeld[k] != v {
			return false
		}
	}
	for k := range a.exitFreed {
		if !b.exitFreed[k] {
			return false
		}
	}
	for k, v := range a.acquires {
		o, ok := b.acquires[k]
		if !ok || o != v {
			return false
		}
	}
	if (a.block == nil) != (b.block == nil) {
		return false
	}
	if a.block != nil && *a.block != *b.block {
		return false
	}
	return true
}

// Locks is the shared whole-program lock engine. Build it once per run
// through Program.Locks; the concurrency analyzers all consume it.
type Locks struct {
	prog   *Program
	sums   map[*Func]*lockSummary
	edges  []*LockEdge
	cycles []*LockCycle
}

// Locks returns the program's shared lock engine, building it on first
// use: the bounded summary fixpoint followed by the acquisition-graph
// pass.
func (p *Program) Locks() *Locks {
	if p.locks != nil {
		return p.locks
	}
	l := &Locks{prog: p, sums: map[*Func]*lockSummary{}}
	l.buildSummaries()
	l.buildGraph()
	p.locks = l
	return l
}

func (l *Locks) summaryOf(fn *Func) *lockSummary {
	if s, ok := l.sums[fn]; ok {
		return s
	}
	return newLockSummary()
}

// FnBlock returns the function's transitive blocking site, or nil.
func (l *Locks) FnBlock(fn *Func) *BlockSite { return l.summaryOf(fn).block }

// maxSummaryRounds bounds the interprocedural fixpoint: recursion and
// mutual recursion converge round by round, and a pathological input
// degrades to an under-approximation instead of blowing up CI time.
const maxSummaryRounds = 6

// paramTag is the positional tag "#i" of parameter i (the receiver is 0
// for a method) in a summary's caller-visible lock keys.
func paramTag(i int) string { return "#" + strconv.Itoa(i) }

// tagIndex returns the parameter index of a tag paramTag made.
func tagIndex(r string) (int, bool) {
	if !strings.HasPrefix(r, "#") {
		return 0, false
	}
	i, err := strconv.Atoi(r[1:])
	return i, err == nil
}

// buildSummaries iterates the per-function summaries to a bounded
// fixpoint: round N sees the round N-1
// summaries of every callee, so effects through recursion and mutual
// recursion accumulate monotonically.
func (l *Locks) buildSummaries() {
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fn := range l.prog.all {
			if fn.Body() == nil {
				continue
			}
			s := l.computeSummary(fn)
			if !lockSummaryEqual(l.summaryOf(fn), s) {
				changed = true
			}
			l.sums[fn] = s
		}
		if !changed {
			break
		}
	}
}

func (l *Locks) computeSummary(fn *Func) *lockSummary {
	sum := newLockSummary()
	w := newLockWalker(l, fn)
	w.freed = map[string]bool{}
	w.skipEscaping = true
	w.v = &LockVisitor{
		Acquire: func(mutex, canon string, mode LockMode, pos token.Pos, held HeldSet) {
			if canon != "" {
				sum.recordAcquire(canon, acqSite{pos: pos, pkg: fn.Pkg, mode: mode})
			}
		},
		Call: func(call *ast.CallExpr, callee *Func, held HeldSet) {
			for _, target := range l.CallTargets(fn.Pkg, call, callee) {
				ts := l.summaryOf(target)
				for canon, site := range ts.acquires {
					sum.recordAcquire(canon, acqSite{pos: call.Pos(), pkg: fn.Pkg, via: chain(target, site.via), mode: site.mode})
				}
				if ts.block != nil && sum.block == nil {
					sum.block = &BlockSite{Pos: call.Pos(), Desc: ts.block.Desc, Via: chain(target, ts.block.Via), Kind: ts.block.Kind}
				}
			}
		},
		Blocked: func(pos token.Pos, desc string, kind BlockKind, held HeldSet) {
			if sum.block == nil {
				sum.block = &BlockSite{Pos: pos, Desc: desc, Kind: kind}
			}
		},
	}
	held := HeldSet{}
	w.walk(held)
	for _, fire := range w.deferred {
		fire(held)
	}
	for k, hi := range held {
		if pk, ok := w.paramRel(k); ok {
			sum.exitHeld[pk] = heldMeta{mode: hi.Mode, canon: hi.Canon}
		}
	}
	sum.exitFreed = w.freed
	return sum
}

// chain prefixes a callee onto an existing call chain.
func chain(target *Func, via string) string {
	if via == "" {
		return target.ShortName()
	}
	return target.ShortName() + " → " + via
}

// CallTargets resolves a call to the functions it may invoke: the
// direct in-program callee, or — for interface dispatch — the
// conservative implementer union, narrowed to receivers whose method
// set covers every method name of the dispatching interface (name-only
// matching survives the per-package type universes; without the
// narrowing, any type with a Close method is a candidate net.Conn).
// callee is the already-resolved direct target (may be nil).
func (l *Locks) CallTargets(pkg *Package, call *ast.CallExpr, callee *Func) []*Func {
	if callee != nil {
		return []*Func{callee}
	}
	if !IsInterfaceCall(pkg, call) {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	names := interfaceMethodNames(pkg, call)
	var out []*Func
	for _, fn := range l.prog.Implementers(sel.Sel.Name, len(call.Args)) {
		if coversMethods(fn, names) {
			out = append(out, fn)
		}
	}
	return out
}

// interfaceMethodNames returns every method name of the interface a
// dynamic call dispatches through.
func interfaceMethodNames(pkg *Package, call *ast.CallExpr) []string {
	fn, ok := CalleeObj(pkg.Info, call).(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	names := make([]string, 0, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		names = append(names, iface.Method(i).Name())
	}
	return names
}

// coversMethods reports whether the declared method's receiver type has
// a method for every listed name (checked in the receiver's own type
// universe, so it is sound across per-package checking).
func coversMethods(fn *Func, names []string) bool {
	obj, ok := fn.Pkg.Info.Defs[fn.Decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	have := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()] = true
	}
	for _, n := range names {
		if !have[n] {
			return false
		}
	}
	return true
}

// A LockVisitor receives the walker's events. Any hook may be nil.
type LockVisitor struct {
	// Node fires for every statement and expression node in source
	// order with the held set current at that point. Returning false
	// prunes the node's subtree.
	Node func(n ast.Node, held HeldSet) bool
	// Acquire fires on a direct Lock/RLock, before the held set gains
	// the mutex. canon is "" for locks the graph cannot name.
	Acquire func(mutex, canon string, mode LockMode, pos token.Pos, held HeldSet)
	// Call fires on every non-lock-op call with the held set at call
	// time, before the callee's net lock effects are applied. callee is
	// the resolved in-program target, nil for external or interface
	// calls.
	Call func(call *ast.CallExpr, callee *Func, held HeldSet)
	// Blocked fires on every direct blocking site from the shared
	// catalogue that has no escape (select case, bounded source, or —
	// for I/O — a deadline armed in the same function).
	Blocked func(pos token.Pos, desc string, kind BlockKind, held HeldSet)
}

// Walk traverses fn's body in source order, maintaining the held lock
// set interprocedurally (direct Lock/Unlock plus the net effects of
// in-program callees' summaries, through helpers, function literals and
// bound method values) and invoking the visitor's hooks. seed is the
// held set on entry (nil for empty) — analyzers use it to model the
// *Locked calling contract.
func (l *Locks) Walk(fn *Func, seed HeldSet, v *LockVisitor) {
	if fn.Body() == nil {
		return
	}
	w := newLockWalker(l, fn)
	w.v = v
	if seed == nil {
		seed = HeldSet{}
	}
	w.walk(seed)
}

// ---------------------------------------------------------------------
// The walker

// lockBinding is a local variable bound to a known function value, so a
// later call through the variable applies the target's summary. For
// method values the receiver's expression text is captured at bind time.
type lockBinding struct {
	fn       *Func
	recvText string
	isMethod bool
}

type lockWalker struct {
	l  *Locks
	fn *Func
	v  *LockVisitor

	params   map[string]int // root identifier name -> param slot (receiver first)
	exempt   map[ast.Node]bool
	armed    bool
	inPlace  map[*ast.FuncLit]bool
	bindings map[types.Object]*lockBinding

	freed        map[string]bool   // summary mode: caller locks net-released
	skipEscaping bool              // summary mode: escaping literals are not this function's effects
	deferred     []func(h HeldSet) // release effects that fire at function exit
}

func newLockWalker(l *Locks, fn *Func) *lockWalker {
	w := &lockWalker{
		l: l, fn: fn,
		params:   map[string]int{},
		exempt:   SelectEscapes(fn.Body()),
		armed:    ArmsDeadline(fn.Body()),
		inPlace:  map[*ast.FuncLit]bool{},
		bindings: map[types.Object]*lockBinding{},
	}
	for i, obj := range fn.Params() {
		if obj != nil && obj.Name() != "" && obj.Name() != "_" {
			w.params[obj.Name()] = i
		}
	}
	return w
}

func (w *lockWalker) pkg() *Package     { return w.fn.Pkg }
func (w *lockWalker) info() *types.Info { return w.fn.Pkg.Info }

func (w *lockWalker) walk(held HeldSet) {
	w.stmts(w.fn.Body().List, held)
}

func (w *lockWalker) stmts(list []ast.Stmt, held HeldSet) {
	for _, st := range list {
		w.stmt(st, held)
	}
}

func (w *lockWalker) stmt(st ast.Stmt, held HeldSet) {
	if st == nil {
		return
	}
	if w.v.Node != nil && !w.v.Node(st, held) {
		return
	}
	switch st := st.(type) {
	case *ast.ExprStmt:
		if mutex, op, ok := mutexOp(w.pkg(), st.X); ok {
			w.transition(mutex, op, st.Pos(), held)
			return
		}
		w.expr(st.X, held)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.expr(r, held)
		}
		for _, l := range st.Lhs {
			w.expr(l, held)
		}
		w.recordBindings(st)
	case *ast.DeferStmt:
		// defer x.mu.Unlock() keeps the lock held for the remainder of
		// the scan — which is exactly the runtime behaviour until
		// return — but the release must still reach the function's exit
		// state, or every mu.Lock(); defer mu.Unlock() helper would
		// claim to net-acquire its lock. The same goes for deferred
		// in-program helpers (defer s.unlockMember()): their net effects
		// are queued and applied when the summary computes the exit set.
		if mutex, op, ok := mutexOp(w.pkg(), st.Call); ok {
			if op == "Unlock" || op == "RUnlock" {
				key := types.ExprString(mutex)
				w.deferred = append(w.deferred, func(h HeldSet) { w.release(key, h) })
			}
			return
		}
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			w.inPlace[lit] = true
			w.stmts(lit.Body.List, held.Copy())
		} else {
			callee := w.l.prog.Callee(w.pkg(), st.Call)
			if w.v.Call != nil {
				w.v.Call(st.Call, callee, held)
			}
			if callee != nil && callee != w.fn && callee.Body() != nil {
				slots := w.callSlots(st.Call, callee)
				w.deferred = append(w.deferred, func(h HeldSet) { w.applySummary(callee, slots, h) })
			}
		}
		for _, a := range st.Call.Args {
			w.expr(a, held)
		}
	case *ast.GoStmt:
		// The goroutine body runs later, without this function's locks,
		// and the spawned callee's lock effects are not the spawner's.
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			w.inPlace[lit] = true
			w.stmts(lit.Body.List, HeldSet{})
		}
		for _, a := range st.Call.Args {
			w.expr(a, held)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		w.stmts(st.Body.List, held.Copy())
		if st.Else != nil {
			w.stmt(st.Else, held.Copy())
		}
	case *ast.BlockStmt:
		w.stmts(st.List, held)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.expr(st.Cond, held)
		}
		w.stmts(st.Body.List, held.Copy())
	case *ast.RangeStmt:
		if desc, ok := BlockingNode(w.pkg(), st, w.exempt); ok {
			w.blocked(st.Pos(), desc, BlockChan, held)
		}
		w.expr(st.X, held)
		w.stmts(st.Body.List, held.Copy())
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.expr(st.Tag, held)
		}
		for _, cc := range st.Body.List {
			w.stmts(cc.(*ast.CaseClause).Body, held.Copy())
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			w.stmts(cc.(*ast.CaseClause).Body, held.Copy())
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			c := held.Copy()
			if comm := cc.(*ast.CommClause).Comm; comm != nil {
				w.stmt(comm, c)
			}
			w.stmts(cc.(*ast.CommClause).Body, c)
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.IncDecStmt:
		w.expr(st.X, held)
	case *ast.SendStmt:
		if desc, ok := BlockingNode(w.pkg(), st, w.exempt); ok {
			w.blocked(st.Pos(), desc, BlockChan, held)
		}
		w.expr(st.Chan, held)
		w.expr(st.Value, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	}
}

// expr traverses one expression subtree, firing Node hooks, applying
// call effects, walking function literals, and catching blocking
// receives.
func (w *lockWalker) expr(e ast.Expr, held HeldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if w.v.Node != nil && !w.v.Node(n, held) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if w.inPlace[n] {
				return false // body walked by the call that invokes it
			}
			// Escaping literal: inherits the held set at its creation
			// site (see the package comment for why).
			if !w.skipEscaping {
				w.stmts(n.Body.List, held.Copy())
			}
			return false
		case *ast.CallExpr:
			if mutex, op, ok := mutexOp(w.pkg(), n); ok {
				w.transition(mutex, op, n.Pos(), held)
				return false
			}
			w.call(n, held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if desc, ok := BlockingNode(w.pkg(), n, w.exempt); ok {
					w.blocked(n.Pos(), desc, BlockChan, held)
				}
			}
		}
		return true
	})
}

// call fires the visitor, then applies the callee's net lock effects to
// the held set.
func (w *lockWalker) call(call *ast.CallExpr, held HeldSet) {
	if desc, kind, ok := BlockingCall(w.pkg(), call); ok {
		w.blocked(call.Pos(), desc, kind, held)
	}
	// Function literal invoked in place: its body runs here, under the
	// current held set, and its transitions flow back out.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.inPlace[lit] = true
		if w.v.Call != nil {
			w.v.Call(call, w.l.prog.lits[lit], held)
		}
		w.stmts(lit.Body.List, held)
		return
	}
	callee := w.l.prog.Callee(w.pkg(), call)
	var slotText func(int) (string, bool)
	if callee == nil {
		// Call through a local binding (func value or method value).
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := w.info().Uses[id]; obj != nil {
				if b := w.bindings[obj]; b != nil {
					callee = b.fn
					slotText = func(slot int) (string, bool) {
						if b.isMethod {
							if slot == 0 {
								return b.recvText, b.recvText != ""
							}
							slot--
						}
						if slot < len(call.Args) {
							return argText(call.Args[slot]), true
						}
						return "", false
					}
				}
			}
		}
	}
	if w.v.Call != nil {
		w.v.Call(call, callee, held)
	}
	if callee == nil || callee == w.fn || callee.Body() == nil {
		return
	}
	if slotText == nil {
		slotText = w.callSlots(call, callee)
	}
	w.applySummary(callee, slotText, held)
}

// applySummary maps a callee's net lock effects into the caller's held
// set through the call-site argument texts.
func (w *lockWalker) applySummary(callee *Func, slotText func(int) (string, bool), held HeldSet) {
	sum := w.l.summaryOf(callee)
	mapKey := func(key string) (string, bool) {
		tag, rest, _ := strings.Cut(key, ".")
		slot, ok := tagIndex(tag)
		if !ok {
			return "", false
		}
		text, ok := slotText(slot)
		if !ok || text == "" {
			return "", false
		}
		if rest != "" {
			text += "." + rest
		}
		return text, true
	}
	for key := range sum.exitFreed {
		if ck, ok := mapKey(key); ok {
			w.release(ck, held)
		}
	}
	for key, hm := range sum.exitHeld {
		if ck, ok := mapKey(key); ok {
			w.addHeld(held, ck, hm.mode, hm.canon)
		}
	}
}

// callSlots maps a callee's receiver-first parameter slots to argument
// expression texts at this call site.
func (w *lockWalker) callSlots(call *ast.CallExpr, callee *Func) func(int) (string, bool) {
	recvText := ""
	methodVal := false
	if callee.IsMethod() {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, found := w.info().Selections[sel]; found && s.Kind() == types.MethodVal {
				methodVal = true
				recvText = argText(sel.X)
			}
		}
	}
	return func(slot int) (string, bool) {
		if methodVal {
			if slot == 0 {
				return recvText, recvText != ""
			}
			slot--
		}
		if slot < len(call.Args) {
			return argText(call.Args[slot]), true
		}
		return "", false
	}
}

// argText renders an argument as a lock-path root, looking through
// parens and a leading address-of (a helper taking *sync.Mutex is
// called with &x.mu, whose path is x.mu).
func argText(e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	return types.ExprString(e)
}

func (w *lockWalker) transition(mutex ast.Expr, op string, pos token.Pos, held HeldSet) {
	key := types.ExprString(mutex)
	switch op {
	case "Lock", "RLock":
		mode := LockWrite
		if op == "RLock" {
			mode = LockRead
		}
		canon := w.canonOf(mutex)
		if w.v.Acquire != nil {
			w.v.Acquire(key, canon, mode, pos, held)
		}
		w.addHeld(held, key, mode, canon)
	case "Unlock", "RUnlock":
		w.release(key, held)
	}
}

func (w *lockWalker) addHeld(held HeldSet, key string, mode LockMode, canon string) {
	if cur, ok := held[key]; ok {
		if mode > cur.Mode {
			cur.Mode = mode
		}
		if cur.Canon == "" {
			cur.Canon = canon
		}
		held[key] = cur
		return
	}
	held[key] = HeldInfo{Mode: mode, Canon: canon}
}

func (w *lockWalker) release(key string, held HeldSet) {
	if _, ok := held[key]; ok {
		delete(held, key)
		return
	}
	// Releasing a lock this function never took: it is the caller's.
	if w.freed != nil {
		if pk, ok := w.paramRel(key); ok {
			w.freed[pk] = true
		}
	}
}

func (w *lockWalker) blocked(pos token.Pos, desc string, kind BlockKind, held HeldSet) {
	if kind == BlockIO && w.armed {
		return // a deadline armed in this function bounds its I/O
	}
	if w.v.Blocked != nil {
		w.v.Blocked(pos, desc, kind, held)
	}
}

// paramRel translates an in-function lock path to a caller-visible
// "#i[.path]" key when its root is a parameter or the receiver.
func (w *lockWalker) paramRel(key string) (string, bool) {
	root, rest, _ := strings.Cut(key, ".")
	i, ok := w.params[root]
	if !ok {
		return "", false
	}
	out := paramTag(i)
	if rest != "" {
		out += "." + rest
	}
	return out, true
}

// canonOf names a mutex expression at the type level: the declaring
// struct's "pkgpath.Type.field" for field mutexes, "pkgpath.name" for
// package-level ones, "" for locals.
func (w *lockWalker) canonOf(mutex ast.Expr) string {
	switch m := ast.Unparen(mutex).(type) {
	case *ast.SelectorExpr:
		if fld, owner, ok := FieldOf(w.info(), m); ok {
			return owner + "." + fld.Name()
		}
	case *ast.Ident:
		if obj := w.info().Uses[m]; obj != nil && obj.Pkg() != nil {
			if v, isVar := obj.(*types.Var); isVar && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	}
	return ""
}

// recordBindings tracks locals bound to known function values so calls
// through the variable apply the target's lock summary; method values
// capture the receiver path at bind time.
func (w *lockWalker) recordBindings(st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.info().Defs[id]
		if obj == nil {
			obj = w.info().Uses[id]
		}
		if obj == nil {
			continue
		}
		var b *lockBinding
		switch r := ast.Unparen(st.Rhs[i]).(type) {
		case *ast.FuncLit:
			b = &lockBinding{fn: w.l.prog.lits[r]}
		case *ast.Ident:
			if tf, isFn := w.info().Uses[r].(*types.Func); isFn {
				b = &lockBinding{fn: w.l.prog.funcs[FuncKey(tf)]}
			}
		case *ast.SelectorExpr:
			if sel, found := w.info().Selections[r]; found && sel.Kind() == types.MethodVal {
				if tf, isFn := sel.Obj().(*types.Func); isFn {
					if target := w.l.prog.funcs[FuncKey(tf)]; target != nil {
						b = &lockBinding{fn: target, recvText: argText(r.X), isMethod: true}
					}
				}
			} else if tf, isFn := w.info().Uses[r.Sel].(*types.Func); isFn {
				b = &lockBinding{fn: w.l.prog.funcs[FuncKey(tf)]}
			}
		}
		if b != nil && b.fn != nil {
			w.bindings[obj] = b
		}
	}
}

// mutexOp matches x.mu.Lock()-shaped calls on sync mutexes, returning
// the mutex expression and the operation.
func mutexOp(pkg *Package, e ast.Expr) (mutex ast.Expr, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	if !IsMutex(pkg.Info.Types[sel.X].Type) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}
