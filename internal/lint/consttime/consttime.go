// Package consttime enforces constant-time discipline in the crypto hot
// paths: within internal/mathx, internal/bdkey and internal/sigs/...,
// no branch, loop bound or slice/array/map index may depend on a
// secret — the instruction-cache, branch-predictor and data-cache
// side channels of modular exponentiation.
//
// Secrets are found by type alone, one function at a time: a value of
// type mathx.Scalar or of one of the unexported exponent-word and digit
// types its fixed window reads (so a helper taking a digit is checked in
// its own body, whoever calls it), or a local assigned one of these
// through operators, conversions, indexing, slicing or field selection.
// Secrets are Scalars by type, so no field carries a marker. Any other
// call returns a secret only by its result type. A function whose name
// ends in VarTime is exempt, as in the Go toolchain's bigmod: its callers
// name the variable-time use. Deliberately variable-time code carries a
// justified //gkalint:vartime <why> waiver. docs/STATIC-ANALYSIS.md has
// the details.
package consttime

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"idgka/internal/lint/analysis"
)

// scopedPrefixes are the crypto hot-path packages (and their fixture
// replicas under analysistest trees) where the discipline applies.
var scopedPrefixes = []string{
	"idgka/internal/mathx",
	"idgka/internal/bdkey",
	"idgka/internal/sigs",
}

// secretTypes are the types every value of which is secret.
var secretTypes = map[string]bool{
	"idgka/internal/mathx.Scalar":      true,
	"idgka/internal/mathx.scalarWords": true,
	"idgka/internal/mathx.expDigit":    true,
}

// Analyzer reports secret-dependent control flow and indexing in the
// crypto hot paths.
var Analyzer = &analysis.Analyzer{
	Name:       "consttime",
	Doc:        "crypto hot paths must not branch, loop, or index on a secret (a mathx.Scalar, its words or digits, or a local derived from one); functions named ...VarTime and //gkalint:vartime sites are exempt",
	WaiverVerb: "vartime",
	Run:        run,
}

func scoped(path string) bool {
	for _, p := range scopedPrefixes {
		if analysis.PathWithin(path, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "VarTime") {
				continue
			}
			c := &checker{pass: pass, locals: map[types.Object]bool{}}
			c.derive(fd.Body)
			c.check(fd.Body)
		}
	}
	return nil
}

// A checker classifies the expressions of one function body.
type checker struct {
	pass   *analysis.Pass
	locals map[types.Object]bool // locals assigned a secret value
}

// derive marks every local assigned a secret value, to a fixpoint, so
// that order in the body does not matter (loops carry values backwards).
func (c *checker) derive(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		mark := func(lhs, rhs ast.Expr) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			if obj := c.pass.Info.ObjectOf(id); obj != nil && !c.locals[obj] && len(c.roots(rhs, false)) > 0 {
				c.locals[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					mark(l, n.Rhs[min(i, len(n.Rhs)-1)])
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if len(n.Values) > 0 {
						mark(name, n.Values[min(i, len(n.Values)-1)])
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					mark(n.Value, n.X)
				}
			}
			return true
		})
	}
}

func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			c.report(n.Cond, n.Pos(), "branch")
		case *ast.SwitchStmt:
			c.report(n.Tag, n.Pos(), "branch")
		case *ast.ForStmt:
			c.report(n.Cond, n.Pos(), "loop bound")
		case *ast.RangeStmt:
			c.report(n.X, n.Pos(), "loop bound")
		case *ast.IndexExpr:
			if t := c.pass.Info.TypeOf(n.X); t != nil && indexable(t) {
				c.report(n.Index, n.Pos(), "table index")
			}
		}
		return true
	})
}

func (c *checker) report(e ast.Expr, pos token.Pos, kind string) {
	if roots := c.roots(e, true); len(roots) > 0 {
		c.pass.Reportf(pos, "secret-dependent %s on %s in a crypto hot path; make it constant-time or waive with //gkalint:vartime <reason>",
			kind, strings.Join(roots, ", "))
	}
}

// roots returns, sorted, the secrets e reads: values of a secret type and
// locals assigned one. With calls set it looks into
// every call's arguments and receiver, as a condition that passes a
// secret to any call depends on it; without, a call other than a
// conversion is secret only by its result type. A comparison with nil is
// presence, not content, and a field or method of a secret-typed value
// (a Scalar's order) is public: the type's methods are constant-time.
func (c *checker) roots(e ast.Expr, calls bool) []string {
	info := c.pass.Info
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		x, ok := n.(ast.Expr)
		if !ok || info.Types[x].IsType() {
			return false
		}
		name := c.secretType(x)
		switch x := x.(type) {
		case *ast.Ident:
			if name == "" && c.locals[info.ObjectOf(x)] {
				name = "local " + x.Name
			}
		case *ast.SelectorExpr:
			if name == "" && c.secretType(x.X) != "" {
				return false
			}
		case *ast.BinaryExpr:
			if nilCompare(info, x) {
				return false
			}
		case *ast.CallExpr:
			if name == "" && !calls && !(info.Types[x.Fun].IsType() && len(x.Args) == 1) {
				return false
			}
		}
		if name != "" && !slices.Contains(out, name) {
			out = append(out, name)
		}
		return name == ""
	})
	slices.Sort(out)
	return out
}

// secretType returns the name of e's type when it is a secret type or a
// pointer to one, and "" otherwise.
func (c *checker) secretType(e ast.Expr) string {
	t := c.pass.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if name := analysis.NamedName(t); secretTypes[name] {
		return name
	}
	return ""
}

func nilCompare(info *types.Info, b *ast.BinaryExpr) bool {
	return (b.Op == token.EQL || b.Op == token.NEQ) && (info.Types[b.X].IsNil() || info.Types[b.Y].IsNil())
}

// indexable reports whether an indexed operand of type t is data memory
// (slice, array, map) rather than a generic instantiation.
func indexable(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	}
	return false
}
