package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// A Func is one analyzable function body in the program: a declared
// function or method (Decl set) or a function literal (Lit set), with
// the package it lives in. Function literals are registered so the
// lock engine can summarize closures bound to variables; their bodies
// are additionally scanned in place as part of their enclosing
// declaration, which is how captured variables stay visible.
type Func struct {
	// Key is the program-wide symbolic name — "pkgpath.Name" for
	// functions, "pkgpath.Type.Name" for methods, "" for literals.
	// Symbolic keys, not types.Object identity, link call sites to
	// declarations: each package is type-checked in its own object
	// universe (targets from source, imports from export data), so the
	// same declaration is a different object on each side of an import.
	Key  string
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package
}

// Body returns the function's body block (nil for bodyless declarations
// such as assembly stubs).
func (f *Func) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// Sig returns the function's AST type.
func (f *Func) Sig() *ast.FuncType {
	if f.Decl != nil {
		return f.Decl.Type
	}
	return f.Lit.Type
}

// IsMethod reports whether f is a declared method.
func (f *Func) IsMethod() bool { return f.Decl != nil && f.Decl.Recv != nil }

// ShortName is the human-readable name used in diagnostic paths.
func (f *Func) ShortName() string {
	if f.Decl != nil {
		return f.Decl.Name.Name
	}
	pos := f.Pkg.Fset.Position(f.Lit.Pos())
	return fmt.Sprintf("func@%d", pos.Line)
}

// Params returns the function's parameters in call-site order, receiver
// first for methods. Entries are nil for unnamed (or blank) parameters,
// which still occupy their positional slot.
func (f *Func) Params() []types.Object {
	var out []types.Object
	field := func(fl *ast.Field) {
		if len(fl.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, name := range fl.Names {
			out = append(out, f.Pkg.Info.Defs[name])
		}
	}
	if f.IsMethod() {
		for _, fl := range f.Decl.Recv.List {
			field(fl)
		}
	}
	if f.Sig().Params != nil {
		for _, fl := range f.Sig().Params.List {
			field(fl)
		}
	}
	return out
}

// Results returns the named result objects (nil entries for unnamed
// results) and the total result count.
func (f *Func) Results() ([]types.Object, int) {
	var out []types.Object
	if f.Sig().Results == nil {
		return nil, 0
	}
	for _, fl := range f.Sig().Results.List {
		if len(fl.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range fl.Names {
			out = append(out, f.Pkg.Info.Defs[name])
		}
	}
	return out, len(out)
}

// A Program is the whole-program view the interprocedural analyzers
// share: every function of every loaded package, indexed for call
// resolution, plus the cross-package annotation index. Build once per
// run (Run does this); analyzers reach it through Pass.Prog.
type Program struct {
	Pkgs  []*Package
	Index *Index

	funcs   map[string]*Func       // declared functions and methods by Key
	lits    map[*ast.FuncLit]*Func // literals by node
	all     []*Func                // deterministic order: package, file, position
	methods map[string][]*Func     // method name -> declared methods (interface fallback)

	locks *Locks // lazily built shared lock engine
}

// BuildProgram indexes every function of the loaded packages.
func BuildProgram(pkgs []*Package, idx *Index) *Program {
	p := &Program{
		Pkgs:    pkgs,
		Index:   idx,
		funcs:   map[string]*Func{},
		lits:    map[*ast.FuncLit]*Func{},
		methods: map[string][]*Func{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn := &Func{Decl: n, Pkg: pkg}
					if obj, ok := pkg.Info.Defs[n.Name].(*types.Func); ok {
						fn.Key = FuncKey(obj)
					}
					if fn.Key != "" {
						p.funcs[fn.Key] = fn
					}
					if n.Recv != nil {
						p.methods[n.Name.Name] = append(p.methods[n.Name.Name], fn)
					}
					p.all = append(p.all, fn)
				case *ast.FuncLit:
					fn := &Func{Lit: n, Pkg: pkg}
					p.lits[n] = fn
					p.all = append(p.all, fn)
				}
				return true
			})
		}
	}
	return p
}

// Funcs returns every indexed function in deterministic order.
func (p *Program) Funcs() []*Func { return p.all }

// PackageOf maps a pass's type-checked package back to its loaded
// Package (analyzers hold a *types.Package; the program indexes the
// loader's wrappers).
func (p *Program) PackageOf(tp *types.Package) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Types == tp {
			return pkg
		}
	}
	return nil
}

// FuncKey computes the symbolic program-wide key of a function object:
// "pkgpath.Name", or "pkgpath.Type.Name" for a method (pointerness of
// the receiver erased). Interface methods and builtins yield "".
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if pt, ok := t.Underlying().(*types.Pointer); ok {
			t = pt.Elem()
		}
		if _, ok := t.Underlying().(*types.Interface); ok {
			return "" // dynamic dispatch: no single declaration
		}
		name := NamedName(t)
		if name == "" {
			return ""
		}
		return name + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Callee resolves a call expression to the in-program function it
// invokes: a function literal called in place, or a declared function
// or method (by symbolic key). Calls through variables, interfaces and
// out-of-program targets return nil.
func (p *Program) Callee(pkg *Package, call *ast.CallExpr) *Func {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return p.lits[lit]
	}
	fn, ok := CalleeObj(pkg.Info, call).(*types.Func)
	if !ok {
		return nil
	}
	return p.funcs[FuncKey(fn)]
}

// IsInterfaceCall reports whether the call dispatches dynamically
// through an interface method.
func IsInterfaceCall(pkg *Package, call *ast.CallExpr) bool {
	fn, ok := CalleeObj(pkg.Info, call).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if pt, ok := t.Underlying().(*types.Pointer); ok {
		t = pt.Elem()
	}
	_, isIface := t.Underlying().(*types.Interface)
	return isIface
}

// Implementers returns the conservative implementation set of an
// interface method: every declared method in the program with the same
// name and parameter count. Name-based matching (rather than
// types.Implements) is deliberate — packages type-checked from source
// and their export-data images live in distinct type universes, so
// object-identity–based checks do not carry across them. The
// over-approximation is the documented "conservative: all
// implementations" fallback.
func (p *Program) Implementers(name string, nparams int) []*Func {
	var out []*Func
	for _, fn := range p.methods[name] {
		if len(fn.Params()) == nparams+1 { // +1: receiver slot
			out = append(out, fn)
		}
	}
	return out
}

// PathWithin reports whether an import path is the repo package or a
// fixture replica of it: equal to full, or ending in "/"+full's slash
// form — so analyzers scoped to real packages also fire on analysistest
// fixtures replicating those paths under testdata/src.
func PathWithin(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
