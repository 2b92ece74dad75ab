package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the whole-program taint engine shared by the
// interprocedural analyzers (secretflow v2, consttime). Taint roots are
// the repo's declared secrets — the builtin key-material list plus every
// //gkalint:secret marker collected in the annotation index. Taint
// propagates through assignments, returns, composite literals, closures
// scanned in place, method values, and call boundaries via per-function
// summaries; a bounded fixpoint over the summaries makes the engine
// whole-program without ever being more than linear passes over each
// body. Deliberate non-goals, documented in docs/STATIC-ANALYSIS.md:
// writes into container objects (x.f = secret taints neither x nor other
// readers of x), channels, and package-level variables do not carry
// taint, and unknown out-of-program callees (the standard library,
// except the explicit propagator lists below) act as sanitizers.

// BuiltinSecrets is the floor of taint roots: the repo's known key
// material, enforced even where //gkalint:secret annotations are outside
// the analyzed package set. "pkgpath.Type" marks a whole type,
// "pkgpath.Type.Field" one struct field.
var BuiltinSecrets = []string{
	"idgka/internal/sigs/gq.PrivateKey",
	"idgka/internal/sigs/gq.PrivateKey.S",
	"idgka/internal/sigs/sok.PrivateKey",
	"idgka/internal/sigs/sok.PrivateKey.D",
	"idgka/internal/sigs/sok.PKG.s",
	"idgka/internal/engine.Group.R",
	"idgka/internal/engine.Group.Key",
	"idgka.Session.key",
}

// SinkPkgs are the packages whose call arguments constitute formatted
// or exported output: key material reaching any of them is a leak.
var SinkPkgs = map[string]bool{
	"fmt":                    true,
	"log":                    true,
	"log/slog":               true,
	"idgka/internal/metrics": true,
}

// bigCarry lists the math/big.Int methods that preserve or encode the
// receiver's (or argument's) value: taint rides through them. Arithmetic
// (Exp, Mul, Mod, ...) deliberately does not propagate — a group element
// computed from a secret exponent is public key-agreement material, and
// flagging it would taint every derived public value in the repo.
var bigCarry = map[string]bool{
	"Set": true, "SetBytes": true, "SetBits": true, "SetString": true,
	"Neg": true, "Abs": true,
	"Bytes": true, "FillBytes": true, "Text": true, "String": true,
	"Append": true, "AppendText": true, "Bits": true, "Bit": true,
	"Int64": true, "Uint64": true,
	"GobEncode": true, "MarshalText": true, "MarshalJSON": true,
}

// bigMutate is the subset of bigCarry that writes the receiver.
var bigMutate = map[string]bool{
	"Set": true, "SetBytes": true, "SetBits": true, "SetString": true,
	"Neg": true, "Abs": true,
}

// encoderPkgs re-encode their arguments: the output is the secret in a
// different alphabet, so taint propagates.
var encoderPkgs = map[string]bool{
	"encoding/hex": true, "encoding/base64": true, "encoding/json": true,
}

// stringifierCarry are method names that serialize their receiver on any
// type; a tainted receiver taints the result.
var stringifierCarry = map[string]bool{
	"String": true, "GoString": true, "Text": true, "Bytes": true,
	"Append": true, "AppendText": true, "MarshalText": true, "MarshalJSON": true,
}

// A taintSet is the set of root names an expression's value derives
// from. During summary computation the set also carries positional
// parameter tags ("#0", "#1", ...).
type taintSet map[string]bool

func (ts taintSet) add(r string) bool {
	if ts[r] {
		return false
	}
	ts[r] = true
	return true
}

func (ts taintSet) merge(o taintSet) bool {
	changed := false
	for r := range o {
		if ts.add(r) {
			changed = true
		}
	}
	return changed
}

func paramTag(i int) string { return "#" + strconv.Itoa(i) }

func tagIndex(r string) (int, bool) {
	if !strings.HasPrefix(r, "#") {
		return 0, false
	}
	i, err := strconv.Atoi(r[1:])
	return i, err == nil
}

// sinkInfo describes where a tainted parameter ends up.
type sinkInfo struct {
	Pkg string // sink package path (fmt, log, ...)
	Via string // call chain from the summarized function to the sink, "" if direct
}

// A summary is one function's taint behaviour as seen from call sites.
type summary struct {
	flows map[int]uint64   // param index -> bitmask of tainted results
	sinks map[int]sinkInfo // param index -> sink it (transitively) reaches
	rets  map[int]taintSet // result index -> roots tainted unconditionally
}

func newSummary() *summary {
	return &summary{flows: map[int]uint64{}, sinks: map[int]sinkInfo{}, rets: map[int]taintSet{}}
}

func summaryEqual(a, b *summary) bool {
	if len(a.flows) != len(b.flows) || len(a.sinks) != len(b.sinks) || len(a.rets) != len(b.rets) {
		return false
	}
	for k, v := range a.flows {
		if b.flows[k] != v {
			return false
		}
	}
	for k, v := range a.sinks {
		if b.sinks[k] != v {
			return false
		}
	}
	for k, v := range a.rets {
		o, ok := b.rets[k]
		if !ok || len(o) != len(v) {
			return false
		}
		for r := range v {
			if !o[r] {
				return false
			}
		}
	}
	return true
}

// Fixpoint bounds. Summary rounds bound the interprocedural fixpoint
// (recursion and mutual recursion converge round by round); scan
// iterations bound the flow-insensitive propagation inside one body.
// Both are hard caps so a pathological input degrades to an
// under-approximation instead of blowing up CI time.
const (
	maxSummaryRounds = 6
	maxScanIters     = 8
)

// A Leak is one secret value reaching a sink, attributed to the source
// root and the call chain that carried it.
type Leak struct {
	Pos  token.Pos
	Root string // the secret's declared name
	Sink string // sink package path
	Via  string // call chain ("helper → fmt.Errorf"), "" for direct calls
}

// Taint is the shared whole-program taint engine. Build it once per run
// through Program.Taint; secretflow and consttime both consume it.
type Taint struct {
	prog         *Program
	secrets      map[string]bool
	sums         map[*Func]*summary
	secretParams map[*Func]map[int]taintSet
	spChanged    bool
}

// Taint returns the program's shared taint engine, building it on first
// use: the bounded summary fixpoint followed by the forward
// secret-parameter propagation.
func (p *Program) Taint() *Taint {
	if p.taint != nil {
		return p.taint
	}
	t := &Taint{
		prog:         p,
		secrets:      map[string]bool{},
		sums:         map[*Func]*summary{},
		secretParams: map[*Func]map[int]taintSet{},
	}
	for _, s := range BuiltinSecrets {
		t.secrets[s] = true
	}
	for s := range p.Index.Secrets {
		t.secrets[s] = true
	}
	t.buildSummaries()
	t.buildSecretParams()
	p.taint = t
	return t
}

// Secret reports whether a root name is in the engine's secret set.
func (t *Taint) Secret(name string) bool { return t.secrets[name] }

func (t *Taint) summaryOf(fn *Func) *summary {
	if s, ok := t.sums[fn]; ok {
		return s
	}
	return newSummary()
}

// buildSummaries computes every function's summary, iterating rounds
// until the summaries stop changing (or the bound is hit): round N sees
// the round N-1 summaries of every callee, so flows through recursion
// and mutual recursion accumulate monotonically.
func (t *Taint) buildSummaries() {
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fn := range t.prog.all {
			if fn.Body() == nil {
				continue
			}
			s := t.computeSummary(fn)
			if !summaryEqual(t.summaryOf(fn), s) {
				changed = true
			}
			t.sums[fn] = s
		}
		if !changed {
			break
		}
	}
}

func (t *Taint) computeSummary(fn *Func) *summary {
	ft := newFnTaint(t, fn, modeSummary)
	for i, obj := range fn.Params() {
		if obj != nil {
			ft.vars[obj] = taintSet{paramTag(i): true}
		}
	}
	ft.propagate()
	s := newSummary()
	results, _ := fn.Results()
	for i, obj := range results {
		if obj != nil {
			ft.mergeRet(i, ft.vars[obj])
		}
	}
	for i, ts := range ft.retTaint {
		for r := range ts {
			if p, ok := tagIndex(r); ok {
				s.flows[p] |= 1 << uint(i)
			} else {
				if s.rets[i] == nil {
					s.rets[i] = taintSet{}
				}
				s.rets[i].add(r)
			}
		}
	}
	s.sinks = ft.paramSinks
	return s
}

// buildSecretParams propagates secrets forward from call sites: a
// parameter is secret-carrying if any caller, anywhere in the program,
// passes it a tainted argument. Bounded rounds make transitive chains
// (engine → bdkey → mathx) converge.
func (t *Taint) buildSecretParams() {
	for round := 0; round < maxSummaryRounds; round++ {
		t.spChanged = false
		for _, fn := range t.prog.all {
			if fn.Body() == nil || fn.Lit != nil {
				continue // literals are scanned in place by their encloser
			}
			ft := newFnTaint(t, fn, modeForward)
			ft.capturing = true
			ft.seedForward()
			ft.propagate()
		}
		if !t.spChanged {
			break
		}
	}
}

func (t *Taint) addSecretParam(fn *Func, idx int, roots taintSet) {
	m := t.secretParams[fn]
	if m == nil {
		m = map[int]taintSet{}
		t.secretParams[fn] = m
	}
	if m[idx] == nil {
		m[idx] = taintSet{}
	}
	for r := range roots {
		if _, isTag := tagIndex(r); isTag {
			continue
		}
		if m[idx].add(r) {
			t.spChanged = true
		}
	}
}

// Leaks runs the reporting pass over one package: every declared
// function is scanned with roots seeded from actual secret expressions,
// and each root that reaches a sink — directly or through the summaries
// of the functions it is passed to — yields a Leak at the argument
// position in this package.
func (t *Taint) Leaks(pkg *Package) []Leak {
	seen := map[string]bool{}
	var out []Leak
	for _, fn := range t.prog.all {
		if fn.Pkg != pkg || fn.Lit != nil || fn.Body() == nil {
			continue
		}
		ft := newFnTaint(t, fn, modeReport)
		ft.propagate()
		ft.reporting = true
		ft.scan()
		for _, l := range ft.leaks {
			key := fmt.Sprintf("%d|%s|%s", l.Pos, l.Root, l.Sink)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Root < out[j].Root
	})
	return out
}

// FuncTaint exposes per-expression classification inside one function,
// seeded with the function's own roots plus every parameter the forward
// propagation proved secret-carrying. consttime drives its
// branch/index checks off this.
type FuncTaint struct{ ft *fnTaint }

// FuncTaint builds the classification for a declared function.
func (t *Taint) FuncTaint(fn *Func) *FuncTaint {
	ft := newFnTaint(t, fn, modeForward)
	ft.seedForward()
	ft.propagate()
	return &FuncTaint{ft: ft}
}

// Mentions returns, sorted, the secret roots appearing anywhere in the
// expression subtree — the value itself or any sub-value it is computed
// from. Comparisons against nil are pruned: nil-ness is presence, not
// content, so `if sk.S == nil` validation branches reveal no key bits.
func (q *FuncTaint) Mentions(e ast.Expr) []string {
	roots := taintSet{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && (q.isNil(n.X) || q.isNil(n.Y)) {
				return false
			}
			// Operator nodes derive taint purely from their operands; the
			// walk classifies the leaves, so pruned subtrees stay pruned.
		case *ast.ParenExpr, *ast.UnaryExpr:
		case ast.Expr:
			roots.merge(q.ft.exprTaint(n))
		}
		return true
	})
	return sortedRoots(roots)
}

func (q *FuncTaint) isNil(e ast.Expr) bool {
	tv, ok := q.ft.info().Types[e]
	return ok && tv.IsNil()
}

func sortedRoots(ts taintSet) []string {
	var out []string
	for r := range ts {
		if _, isTag := tagIndex(r); !isTag {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return filterRoots(out)
}

// filterRoots drops a whole-type root when a more precise field root of
// the same type is present, so one leak reports as PrivateKey.S, not as
// PrivateKey and PrivateKey.S twice.
func filterRoots(roots []string) []string {
	var out []string
	for _, r := range roots {
		specific := false
		for _, o := range roots {
			if o != r && strings.HasPrefix(o, r+".") {
				specific = true
				break
			}
		}
		if !specific {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Per-function propagation

const (
	modeSummary = iota // params tagged; output: summary
	modeReport         // roots only; output: leaks
	modeForward        // roots + secret params; output: classification / capture
)

// binding records a local variable holding a known function value: a
// closure, a declared function, or a method value (with the receiver's
// taint at bind time; recvBound distinguishes a method value, whose
// receiver slot is already filled, from a method expression, whose
// receiver arrives as the first call argument).
type binding struct {
	fn        *Func
	recvTaint taintSet
	recvBound bool
}

type fnTaint struct {
	t    *Taint
	fn   *Func
	mode int

	vars       map[types.Object]taintSet
	bindings   map[types.Object]*binding
	retTaint   map[int]taintSet
	ownRets    map[*ast.ReturnStmt]bool
	paramSinks map[int]sinkInfo

	reporting bool // final scan: emit leaks
	capturing bool // forward rounds: record secret params at call sites
	leaks     []Leak
	changed   bool
}

func newFnTaint(t *Taint, fn *Func, mode int) *fnTaint {
	return &fnTaint{
		t: t, fn: fn, mode: mode,
		vars:       map[types.Object]taintSet{},
		bindings:   map[types.Object]*binding{},
		retTaint:   map[int]taintSet{},
		ownRets:    ownReturns(fn),
		paramSinks: map[int]sinkInfo{},
	}
}

func (ft *fnTaint) info() *types.Info { return ft.fn.Pkg.Info }

func (ft *fnTaint) seedForward() {
	params := ft.fn.Params()
	for idx, roots := range ft.t.secretParams[ft.fn] {
		if idx < len(params) && params[idx] != nil {
			if ft.vars[params[idx]] == nil {
				ft.vars[params[idx]] = taintSet{}
			}
			ft.vars[params[idx]].merge(roots)
		}
	}
}

// ownReturns collects the return statements belonging to the function
// itself, excluding those of nested function literals (whose returns
// must not feed the encloser's summary).
func ownReturns(fn *Func) map[*ast.ReturnStmt]bool {
	out := map[*ast.ReturnStmt]bool{}
	body := fn.Body()
	if body == nil {
		return out
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				out[m] = true
			}
			return true
		})
	}
	walk(body)
	return out
}

// propagate iterates the flow-insensitive scan until the tainted-object
// set stops growing (bounded).
func (ft *fnTaint) propagate() {
	for i := 0; i < maxScanIters; i++ {
		ft.changed = false
		ft.scan()
		if !ft.changed {
			break
		}
	}
}

// scan makes one monotone pass over the body: statements transfer taint
// between objects, every call is evaluated (for result taint, sink hits
// and forward capture), and nested function literals are walked in
// place so closures see their captured variables' taint.
func (ft *fnTaint) scan() {
	body := ft.fn.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			ft.assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			if len(n.Values) > 0 {
				ft.assign(lhs, n.Values)
			}
		case *ast.RangeStmt:
			ts := ft.exprTaint(n.X)
			if len(ts) > 0 {
				ft.taintLhs(n.Key, ts)
				ft.taintLhs(n.Value, ts)
			}
		case *ast.ReturnStmt:
			if ft.ownRets[n] {
				ft.recordReturn(n)
			}
		case *ast.CallExpr:
			ft.evalCall(n)
		}
		return true
	})
}

func (ft *fnTaint) recordReturn(ret *ast.ReturnStmt) {
	if len(ret.Results) == 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			_, n := ft.fn.Results()
			if n > 1 { // return f() forwarding a multi-value call
				for i, ts := range ft.evalCall(call) {
					ft.mergeRet(i, ts)
				}
				return
			}
		}
	}
	for i, r := range ret.Results {
		ft.mergeRet(i, ft.exprTaint(r))
	}
}

func (ft *fnTaint) mergeRet(i int, ts taintSet) {
	if len(ts) == 0 {
		return
	}
	if ft.retTaint[i] == nil {
		ft.retTaint[i] = taintSet{}
	}
	if ft.retTaint[i].merge(ts) {
		ft.changed = true
	}
}

// assign transfers rhs taint to lhs identifiers and records function
// value bindings. Writes through selectors, indexes, or dereferences are
// a documented non-goal: they would taint whole container objects and
// flood unrelated reads.
func (ft *fnTaint) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		var sets []taintSet
		switch r := ast.Unparen(rhs[0]).(type) {
		case *ast.CallExpr:
			sets = ft.evalCall(r)
		default: // v, ok := m[k] / <-ch / x.(T)
			ts := ft.exprTaint(rhs[0])
			sets = []taintSet{ts}
		}
		for i, l := range lhs {
			if i < len(sets) {
				ft.taintLhs(l, sets[i])
			}
		}
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		ft.recordBinding(l, rhs[i])
		ft.taintLhs(l, ft.exprTaint(rhs[i]))
	}
}

func (ft *fnTaint) taintLhs(l ast.Expr, ts taintSet) {
	if l == nil || len(ts) == 0 {
		return
	}
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := ft.info().Defs[id]
	if obj == nil {
		obj = ft.info().Uses[id]
	}
	ft.taintObj(obj, ts)
}

func (ft *fnTaint) taintObj(obj types.Object, ts taintSet) {
	if obj == nil || len(ts) == 0 {
		return
	}
	if ft.vars[obj] == nil {
		ft.vars[obj] = taintSet{}
	}
	if ft.vars[obj].merge(ts) {
		ft.changed = true
	}
}

// recordBinding tracks local variables bound to callable values so
// later calls through the variable use the target's summary; method
// values keep the receiver's taint from bind time.
func (ft *fnTaint) recordBinding(l, r ast.Expr) {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := ft.info().Defs[id]
	if obj == nil {
		obj = ft.info().Uses[id]
	}
	if obj == nil {
		return
	}
	var b *binding
	switch r := ast.Unparen(r).(type) {
	case *ast.FuncLit:
		b = &binding{fn: ft.t.prog.lits[r]}
	case *ast.Ident:
		if tf, ok := ft.info().Uses[r].(*types.Func); ok {
			b = &binding{fn: ft.t.prog.funcs[FuncKey(tf)]}
		}
	case *ast.SelectorExpr:
		if sel, ok := ft.info().Selections[r]; ok && sel.Kind() == types.MethodVal {
			if tf, ok := sel.Obj().(*types.Func); ok {
				if target := ft.t.prog.funcs[FuncKey(tf)]; target != nil {
					b = &binding{fn: target, recvTaint: ft.exprTaint(r.X), recvBound: true}
				}
			}
		} else if tf, ok := ft.info().Uses[r.Sel].(*types.Func); ok {
			b = &binding{fn: ft.t.prog.funcs[FuncKey(tf)]}
		}
	}
	if b == nil || b.fn == nil {
		return
	}
	if prev := ft.bindings[obj]; prev != nil && prev.fn == b.fn {
		if b.recvTaint != nil {
			if prev.recvTaint == nil {
				prev.recvTaint = taintSet{}
			}
			if prev.recvTaint.merge(b.recvTaint) {
				ft.changed = true
			}
		}
		return
	}
	ft.bindings[obj] = b
	ft.changed = true
}

// ---------------------------------------------------------------------
// Expression classification

// exprTaint computes the roots an expression's value derives from.
func (ft *fnTaint) exprTaint(e ast.Expr) taintSet {
	if e == nil {
		return nil
	}
	out := taintSet{}
	tv, hasTV := ft.info().Types[e]
	if hasTV && !tv.IsValue() {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := ft.info().Uses[e]
		if obj == nil {
			obj = ft.info().Defs[e]
		}
		out.merge(ft.vars[obj])
	case *ast.SelectorExpr:
		out.merge(ft.selTaint(e))
	case *ast.CallExpr:
		for _, ts := range ft.evalCall(e) {
			out.merge(ts)
		}
	case *ast.ParenExpr:
		out.merge(ft.exprTaint(e.X))
	case *ast.StarExpr:
		out.merge(ft.exprTaint(e.X))
	case *ast.UnaryExpr:
		out.merge(ft.exprTaint(e.X))
	case *ast.BinaryExpr:
		out.merge(ft.exprTaint(e.X))
		out.merge(ft.exprTaint(e.Y))
	case *ast.IndexExpr:
		out.merge(ft.exprTaint(e.X))
	case *ast.SliceExpr:
		out.merge(ft.exprTaint(e.X))
	case *ast.TypeAssertExpr:
		out.merge(ft.exprTaint(e.X))
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			// A pointer element does not taint the container: fmt renders
			// nested pointer fields as addresses, never their contents, so
			// &Member{sk: key} is printable while creds{key: bytes} is not.
			if t := ft.info().Types[elt].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Pointer, *types.Signature, *types.Chan:
					continue
				}
			}
			out.merge(ft.exprTaint(elt))
		}
	case *ast.FuncLit:
		return nil
	}
	// A value of a secret-marked type is a root wherever it appears.
	if hasTV {
		if name := ft.typeSecret(tv.Type); name != "" {
			out.add(name)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// typeSecret returns the secret name of a marked named type (looking
// through pointers and one container level), or "".
func (ft *fnTaint) typeSecret(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if name := NamedName(t); name != "" && ft.t.secrets[name] {
		return name
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if name := NamedName(u.Elem()); name != "" && ft.t.secrets[name] {
			return name
		}
	case *types.Array:
		if name := NamedName(u.Elem()); name != "" && ft.t.secrets[name] {
			return name
		}
	case *types.Map:
		if name := NamedName(u.Elem()); name != "" && ft.t.secrets[name] {
			return name
		}
	}
	return ""
}

// selTaint classifies a field selection: a marked field is a root;
// selecting an unmarked field out of a value tainted only by its own
// type marker projects back to public (printing sk leaks, printing
// sk.ID does not).
func (ft *fnTaint) selTaint(sel *ast.SelectorExpr) taintSet {
	fld, owner, ok := FieldOf(ft.info(), sel)
	if !ok {
		return nil
	}
	key := owner + "." + fld.Name()
	base := ft.exprTaint(sel.X)
	out := taintSet{}
	if ft.t.secrets[key] {
		out.add(key)
	}
	baseType := ""
	if tv, ok := ft.info().Types[sel.X]; ok {
		t := tv.Type
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		baseType = NamedName(t)
	}
	for r := range base {
		if r == baseType || ft.paramOfType(r, baseType) {
			continue // type-marker projection: field's own status decides
		}
		out.add(r)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// paramOfType reports whether r tags a parameter declared with the
// secret type name. Every argument in that slot carries the type marker,
// which the field projection drops at the call site, so the projection
// drops the tag too: a constructor storing sk.ID returns a public value.
func (ft *fnTaint) paramOfType(r, name string) bool {
	i, ok := tagIndex(r)
	if !ok || !ft.t.secrets[name] {
		return false
	}
	params := ft.fn.Params()
	return i < len(params) && params[i] != nil && ft.typeSecret(params[i].Type()) == name
}

// ---------------------------------------------------------------------
// Calls

// evalCall computes per-result taint for a call and, depending on mode,
// registers sink hits (summary/report) and secret parameters (forward).
func (ft *fnTaint) evalCall(call *ast.CallExpr) []taintSet {
	info := ft.info()
	// Conversion: T(x) keeps x's taint.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return []taintSet{ft.exprTaint(call.Args[0])}
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return ft.evalBuiltin(id.Name, call)
		}
		// Call through a local binding (closure, func value, method value).
		if obj := info.Uses[id]; obj != nil {
			if b := ft.bindings[obj]; b != nil {
				return ft.applyCallee(call, b.fn, b.recvTaint, b.recvBound)
			}
		}
	}
	// In-program declared function, method, or literal called in place.
	if callee := ft.t.prog.Callee(ft.fn.Pkg, call); callee != nil {
		var recv taintSet
		recvBound := false
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && callee.IsMethod() {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				recv = ft.exprTaint(sel.X)
				recvBound = true
			}
		}
		return ft.applyCallee(call, callee, recv, recvBound)
	}
	// Interface dispatch: conservative union over same-name methods.
	if IsInterfaceCall(ft.fn.Pkg, call) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			impls := ft.t.prog.Implementers(sel.Sel.Name, len(call.Args))
			if len(impls) > 0 {
				recv := ft.exprTaint(sel.X)
				out := []taintSet{}
				for _, impl := range impls {
					for i, ts := range ft.applyCallee(call, impl, recv, true) {
						for len(out) <= i {
							out = append(out, taintSet{})
						}
						out[i].merge(ts)
					}
				}
				return out
			}
		}
	}
	return ft.evalExternal(call)
}

// applyCallee maps call arguments onto the callee's parameter slots and
// applies its summary: result taint, transitive sink hits, and forward
// secret-parameter capture. recvBound says the receiver slot is already
// filled (method value / m.f(...) call), so arguments start at slot 1;
// a method expression T.M(recv, args...) passes the receiver as args[0]
// and the receiver-first params list lines up with offset 0.
func (ft *fnTaint) applyCallee(call *ast.CallExpr, callee *Func, recvTaint taintSet, recvBound bool) []taintSet {
	params := callee.Params()
	clamp := func(i int) int {
		if i >= len(params) && len(params) > 0 {
			return len(params) - 1 // variadic tail
		}
		return i
	}
	offset := 0
	argTaint := map[int]taintSet{}
	argExpr := map[int]ast.Expr{}
	if callee.IsMethod() && recvBound {
		offset = 1
		if len(recvTaint) > 0 {
			argTaint[0] = recvTaint
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				argExpr[0] = sel.X
			}
		}
	}
	for i, a := range call.Args {
		idx := clamp(offset + i)
		ts := ft.exprTaint(a)
		if len(ts) == 0 {
			continue
		}
		if argTaint[idx] == nil {
			argTaint[idx] = taintSet{}
		}
		argTaint[idx].merge(ts)
		argExpr[idx] = a
	}
	sum := ft.t.summaryOf(callee)
	_, nres := callee.Results()
	out := make([]taintSet, nres)
	for i := range out {
		out[i] = taintSet{}
		out[i].merge(sum.rets[i])
	}
	for idx, ts := range argTaint {
		if ft.capturing {
			ft.t.addSecretParam(callee, idx, ts)
		}
		if mask, ok := sum.flows[idx]; ok {
			for i := 0; i < nres; i++ {
				if mask&(1<<uint(i)) != 0 {
					out[i].merge(ts)
				}
			}
		}
		if si, ok := sum.sinks[idx]; ok {
			via := callee.ShortName()
			if si.Via != "" {
				via += " → " + si.Via
			}
			pos := call.Pos()
			if e, ok := argExpr[idx]; ok {
				pos = e.Pos()
			}
			ft.sinkHit(pos, ts, sinkInfo{Pkg: si.Pkg, Via: via})
		}
	}
	if nres == 0 {
		return nil
	}
	return out
}

func (ft *fnTaint) evalBuiltin(name string, call *ast.CallExpr) []taintSet {
	switch name {
	case "append", "min", "max":
		out := taintSet{}
		for _, a := range call.Args {
			out.merge(ft.exprTaint(a))
		}
		return []taintSet{out}
	case "copy":
		if len(call.Args) == 2 {
			ft.taintLhs(baseIdent(call.Args[0]), ft.exprTaint(call.Args[1]))
		}
	}
	// len/cap/make/new/delete/clear: lengths and fresh values declassify.
	return nil
}

// evalExternal handles out-of-program callees: sinks, the explicit
// propagator lists, and the default sanitizer behaviour.
func (ft *fnTaint) evalExternal(call *ast.CallExpr) []taintSet {
	info := ft.info()
	obj := CalleeObj(info, call)
	pkgPath := ""
	if obj != nil && obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	// Sink: any argument's taint is a hit.
	if SinkPkgs[pkgPath] {
		out := taintSet{}
		for _, a := range call.Args {
			ts := ft.exprTaint(a)
			if len(ts) == 0 {
				continue
			}
			ft.sinkHit(a.Pos(), ts, sinkInfo{Pkg: pkgPath})
			out.merge(ts) // Sprintf/Errorf: the formatted result is the secret too
		}
		if len(out) > 0 {
			return []taintSet{out}
		}
		return nil
	}
	// Encoders re-alphabetize their input.
	if encoderPkgs[pkgPath] {
		out := taintSet{}
		for _, a := range call.Args {
			out.merge(ft.exprTaint(a))
		}
		if len(out) > 0 {
			return []taintSet{out}
		}
		return nil
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil
	}
	// math/big value-preserving methods.
	if tf, ok := obj.(*types.Func); ok && pkgPath == "math/big" && bigCarry[tf.Name()] {
		out := taintSet{}
		out.merge(ft.exprTaint(sel.X))
		for _, a := range call.Args {
			out.merge(ft.exprTaint(a))
		}
		if len(out) > 0 {
			if bigMutate[tf.Name()] {
				ft.taintLhs(baseIdent(sel.X), out)
			}
			if tf.Name() == "FillBytes" && len(call.Args) == 1 {
				ft.taintLhs(baseIdent(call.Args[0]), out)
			}
			return []taintSet{out}
		}
		return nil
	}
	// Generic stringifiers: a tainted receiver's serialization is tainted.
	if stringifierCarry[sel.Sel.Name] {
		if ts := ft.exprTaint(sel.X); len(ts) > 0 {
			return []taintSet{ts}
		}
	}
	return nil
}

// baseIdent unwraps selectors/indexes/derefs to the root identifier of
// an lvalue chain (x in x.f[i]), or nil.
func baseIdent(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sinkHit routes a tainted value arriving at a sink: parameter tags feed
// the function's summary, real roots become leaks in the reporting scan.
func (ft *fnTaint) sinkHit(pos token.Pos, ts taintSet, si sinkInfo) {
	switch ft.mode {
	case modeSummary:
		for r := range ts {
			if idx, ok := tagIndex(r); ok {
				if _, exists := ft.paramSinks[idx]; !exists {
					ft.paramSinks[idx] = si
				}
			}
		}
	case modeReport:
		if !ft.reporting {
			return
		}
		for _, r := range sortedRoots(ts) {
			ft.leaks = append(ft.leaks, Leak{Pos: pos, Root: r, Sink: si.Pkg, Via: si.Via})
		}
	}
}
