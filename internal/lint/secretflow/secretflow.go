// Package secretflow keeps key material out of formatted output.
// Private exponents, extracted identity keys and session keys must never
// reach fmt/log formatting, error strings, metrics, or stringification
// methods — one %v on the wrong struct ships a private exponent to a log
// aggregator. Fingerprints (hashes of key bytes) are the sanctioned way
// to print key identity.
//
// Secrets are declared where they live, with a //gkalint:secret marker
// on the struct field or type declaration; the annotation index makes
// markers visible across packages within one gkalint run, and a built-in
// list (analysis.BuiltinSecrets) covers the repo's known key material as
// a floor.
//
// Since PR 9 the analyzer is interprocedural: it rides the whole-program
// taint engine (analysis.Taint), so a secret that leaves through a
// helper's return value, a closure capture, a method value, or an
// interface call and only then meets fmt.Errorf is reported at the point
// where the secret entered the flow. The analyzer reports:
//
//   - a secret value — or any value data-derived from one through
//     assignments, returns, function summaries, math/big copies and
//     encodings — reaching any fmt/log/log-slog/metrics sink, across
//     function and package boundaries;
//   - a value formatted whole whose type holds a secret by value: a
//     struct with a marked field, a field of a marked type (mathx.Scalar)
//     or another such struct, also in an array, slice or map. fmt prints
//     an unexported field by reflection, so the field type's own
//     redacting Format never runs. Such a holder is a root where it is
//     formatted — at a sink, or passed to a function's empty-interface
//     parameter that reaches one — unless it has its own redacting
//     Format;
//   - String/Text/GoString/Append called directly on a secret;
//   - a marked type declaring String, GoString, Format, MarshalText or
//     MarshalJSON (stringification invites accidental leaks). A method
//     with an unnamed or blank receiver cannot read the value, so it is
//     a redaction, like mathx.Scalar's Format, and needs no waiver.
//
// Deliberate output — e.g. a test vector dump — carries
// //gkalint:secretok <why>.
package secretflow

import (
	"go/ast"
	"go/types"

	"idgka/internal/lint/analysis"
)

// stringifiers are method names that turn a value into output.
var stringifiers = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Text": true, "Append": true, "AppendText": true,
	"MarshalText": true, "MarshalJSON": true,
}

// Analyzer reports key material flowing into formatted output.
var Analyzer = &analysis.Analyzer{
	Name:       "secretflow",
	Doc:        "private exponents, identity keys and session keys must not reach fmt/log/error/metrics output or Stringers, across function boundaries",
	WaiverVerb: "secretok",
	Run:        run,
}

func run(pass *analysis.Pass) error {
	taint := pass.Prog.Taint()
	if pkg := pass.Prog.PackageOf(pass.Pkg); pkg != nil {
		for _, leak := range taint.Leaks(pkg) {
			pass.Reportf(leak.Pos, "secret %s reaches %s%s; print a fingerprint (hash) instead or waive with //gkalint:secretok <reason>",
				leak.Root, sinkPhrase(leak.Sink), viaClause(leak.Via))
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkStringified(pass, n)
			case *ast.FuncDecl:
				checkStringer(pass, n)
			}
			return true
		})
	}
	return nil
}

func sinkPhrase(pkg string) string {
	if pkg == "idgka/internal/metrics" {
		return "a metrics sink"
	}
	return pkg + " formatting"
}

func viaClause(via string) string {
	if via == "" {
		return ""
	}
	return " (via " + via + ")"
}

// secretName classifies an expression directly: the key it is secret
// under, or "". This is the local (v1) classification used for the
// stringifier checks; flow-derived classification lives in the engine.
func secretName(pass *analysis.Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if fld, owner, ok := analysis.FieldOf(pass.Info, sel); ok {
			if key := owner + "." + fld.Name(); pass.Index.Secrets[key] {
				return key
			}
		}
	}
	t := pass.Info.Types[e].Type
	if t != nil {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if name := analysis.NamedName(t); pass.Index.Secrets[name] {
			return name
		}
	}
	return ""
}

// checkStringified flags direct stringification of secrets.
func checkStringified(pass *analysis.Pass, call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && stringifiers[sel.Sel.Name] {
		if key := secretName(pass, sel.X); key != "" {
			pass.Reportf(call.Pos(), "secret %s stringified via %s; derive a fingerprint instead", key, sel.Sel.Name)
		}
	}
}

// checkStringer flags formatting methods declared on secret-marked types,
// except redactions, whose receiver is unnamed or blank.
func checkStringer(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || !stringifiers[fd.Name.Name] {
		return
	}
	if names := fd.Recv.List[0].Names; len(names) == 0 || names[0].Name == "_" {
		return
	}
	t := pass.Info.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if name := analysis.NamedName(t); pass.Index.Secrets[name] {
		pass.Reportf(fd.Pos(), "secret type %s declares %s: stringification leaks key material through every %%v; redact and waive with //gkalint:secretok", name, fd.Name.Name)
	}
}
