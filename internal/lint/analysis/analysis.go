// Package analysis is the repo's in-tree static-analysis framework: a
// deliberately small, API-compatible subset of
// golang.org/x/tools/go/analysis, built on the standard library only so
// the lint suite needs no module downloads. Analyzers inspect one
// type-checked package at a time and report position-anchored
// diagnostics; a shared waiver mechanism (//gkalint:<verb> <reason>
// comments) suppresses individual findings with an audit trail, and an
// annotation index carries cross-package markers such as
// //gkalint:secret. If the x/tools dependency ever becomes available,
// analyzers port over by swapping the import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc explains the invariant the analyzer enforces, why it exists
	// (which PR's bug class motivated it) and the waiver syntax.
	Doc string
	// WaiverVerb is the gkalint comment verb that waives this analyzer's
	// diagnostics at a site: a comment //gkalint:<verb> <justification>
	// on the reported line or the line directly above suppresses the
	// finding. An empty verb means the analyzer's findings cannot be
	// waived.
	WaiverVerb string
	// Run reports the package's violations through pass.Report.
	Run func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Package is one loaded, type-checked package — the unit an analyzer
// runs over. Loaders (internal/lint/load) produce them.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Index holds cross-package gkalint annotations collected over every
	// loaded package (never nil during Run).
	Index *Index
	// Prog is the whole-program view (call graph, shared taint engine)
	// over every loaded package — the substrate of the interprocedural
	// analyzers (never nil during Run).
	Prog *Program

	report func(Diagnostic)
}

// Report records one violation.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records one violation with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Index aggregates gkalint annotations across every package of a run, so
// an analyzer checking package A sees markers declared in package B
// (e.g. a secret field of an imported type). It is built by Run before
// any analyzer executes.
type Index struct {
	// Secrets holds //gkalint:secret markers: "pkgpath.Type" for a whole
	// type, "pkgpath.Type.Field" for one struct field.
	Secrets map[string]bool
	// Callbacks holds //gkalint:callback markers on func-typed struct
	// fields and on methods: "pkgpath.Type.Name". Marked callables are
	// user callbacks that must not be invoked while a lock is held.
	Callbacks map[string]bool
	// Guards holds //gkalint:guard regions read out of struct bodies:
	// "pkgpath.Type" -> field name -> guard path relative to the struct
	// value (e.g. "mu", "mb.mu"). Collected globally so a guard declared
	// in one package protects accesses from every other package.
	Guards map[string]map[string]string
}

// Guard returns the guard path for a field of an owner type, or "".
func (idx *Index) Guard(owner, field string) string { return idx.Guards[owner][field] }

// A Finding is one post-waiver diagnostic, positioned and attributed.
// Suppressed findings (covered by a justified waiver) are retained by
// RunAll so the SARIF emitter can report them with their audit trail;
// the plain Run entry points drop them.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding covered by a justified waiver.
	Suppressed bool
	// Justification is the waiver's reason when Suppressed.
	Justification string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// waiver is one parsed //gkalint:<verb> <reason> comment.
type waiver struct {
	verb   string
	reason string
	pos    token.Position
	used   bool // it covered a finding of this run
}

// WaiverPrefix introduces every gkalint control comment.
const WaiverPrefix = "//gkalint:"

// parseWaiver splits a control comment into verb and justification, or
// returns ok=false for ordinary comments.
func parseWaiver(text string) (w waiver, ok bool) {
	if !strings.HasPrefix(text, WaiverPrefix) {
		return w, false
	}
	rest := strings.TrimPrefix(text, WaiverPrefix)
	verb, reason, _ := strings.Cut(rest, " ")
	if verb == "" {
		return w, false
	}
	return waiver{verb: verb, reason: strings.TrimSpace(reason)}, true
}

// waiverMap indexes a package's control comments by file and line.
type waiverMap map[string]map[int][]*waiver

func collectWaivers(pkg *Package) waiverMap {
	wm := waiverMap{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, ok := parseWaiver(c.Text)
				if !ok {
					continue
				}
				w.pos = pkg.Fset.Position(c.Pos())
				m := wm[w.pos.Filename]
				if m == nil {
					m = map[int][]*waiver{}
					wm[w.pos.Filename] = m
				}
				m[w.pos.Line] = append(m[w.pos.Line], &w)
			}
		}
	}
	return wm
}

// lookup finds a waiver for verb covering line (same line or the line
// directly above).
func (wm waiverMap) lookup(file string, line int, verb string) (*waiver, bool) {
	for _, l := range [2]int{line, line - 1} {
		for _, w := range wm[file][l] {
			if w.verb == verb {
				return w, true
			}
		}
	}
	return nil, false
}

// buildIndex scans every loaded package for cross-package annotations.
func buildIndex(pkgs []*Package) *Index {
	idx := &Index{Secrets: map[string]bool{}, Callbacks: map[string]bool{}, Guards: map[string]map[string]string{}}
	for _, pkg := range pkgs {
		collectAnnotations(pkg, idx)
		collectGuards(pkg, idx)
	}
	return idx
}

// collectGuards reads //gkalint:guard markers out of struct bodies into
// the index. A marker guards every field declared after it (in source
// order) until a //gkalint:guard - marker ends the region.
func collectGuards(pkg *Package, idx *Index) {
	for _, f := range pkg.Files {
		// Comments inside a struct body may be floating (attached to the
		// file, not a field), so index them all by position.
		type marker struct {
			pos  token.Pos
			path string
		}
		var markers []marker
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "gkalint:guard") {
					continue
				}
				path := strings.TrimSpace(strings.TrimPrefix(text, "gkalint:guard"))
				markers = append(markers, marker{pos: c.Pos(), path: path})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			typeName := pkg.PkgPath + "." + ts.Name.Name
			for _, fld := range st.Fields.List {
				// The innermost marker before this field wins.
				cur := ""
				for _, m := range markers {
					if m.pos > st.Struct && m.pos < fld.Pos() {
						cur = m.path
					}
				}
				if cur == "" || cur == "-" {
					continue
				}
				if idx.Guards[typeName] == nil {
					idx.Guards[typeName] = map[string]string{}
				}
				for _, name := range fld.Names {
					idx.Guards[typeName][name.Name] = cur
				}
			}
			return true
		})
	}
}

// markerOn reports whether a gkalint marker verb is attached to the node:
// in its doc comment, its line comment, or on the line directly above.
func markerOn(pkg *Package, wm waiverMap, verbs map[string]bool, docs []*ast.CommentGroup, pos token.Pos) (string, bool) {
	for _, cg := range docs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if w, ok := parseWaiver(c.Text); ok && verbs[w.verb] {
				return w.verb, true
			}
		}
	}
	p := pkg.Fset.Position(pos)
	for verb := range verbs {
		if _, ok := wm.lookup(p.Filename, p.Line, verb); ok {
			return verb, true
		}
	}
	return "", false
}

var annotationVerbs = map[string]bool{"secret": true, "callback": true}

func collectAnnotations(pkg *Package, idx *Index) {
	wm := collectWaivers(pkg)
	record := func(verb, key string) {
		switch verb {
		case "secret":
			idx.Secrets[key] = true
		case "callback":
			idx.Callbacks[key] = true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if verb, ok := markerOn(pkg, wm, annotationVerbs, []*ast.CommentGroup{n.Doc, n.Comment}, n.Pos()); ok {
					record(verb, pkg.PkgPath+"."+n.Name.Name)
				}
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						verb, ok := markerOn(pkg, wm, annotationVerbs, []*ast.CommentGroup{fld.Doc, fld.Comment}, fld.Pos())
						if !ok {
							continue
						}
						for _, name := range fld.Names {
							record(verb, pkg.PkgPath+"."+n.Name.Name+"."+name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv == nil || len(n.Recv.List) == 0 {
					return true
				}
				if verb, ok := markerOn(pkg, wm, annotationVerbs, []*ast.CommentGroup{n.Doc}, n.Pos()); ok {
					if tn := recvTypeName(pkg, n); tn != "" {
						record(verb, pkg.PkgPath+"."+tn+"."+n.Name.Name)
					}
				}
			}
			return true
		})
	}
}

// recvTypeName resolves a method's receiver base type name.
func recvTypeName(pkg *Package, fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// Run executes every analyzer over every package, applies waivers, and
// returns the surviving findings sorted by position. A waiver whose
// justification is empty does not suppress — it is itself reported, so
// every waived site carries a reason reviewable in the diff. So is a
// waiver of an analyzer that ran but reported nothing it covers: a stale
// waiver would silently excuse the next regression on its line.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	return RunWithIndex(pkgs, pkgs, analyzers)
}

// RunWithIndex is Run with the annotation index built over a wider
// package set than the analyzed one — analysistest uses it so fixture
// dependency packages contribute their //gkalint:secret markers without
// being analyzed themselves.
func RunWithIndex(pkgs, indexed []*Package, analyzers []*Analyzer) ([]Finding, error) {
	all, _, err := RunAll(pkgs, indexed, analyzers)
	if err != nil {
		return nil, err
	}
	var active []Finding
	for _, f := range all {
		if !f.Suppressed {
			active = append(active, f)
		}
	}
	return active, nil
}

// RunAll is RunWithIndex, but it additionally returns waiver-suppressed
// findings (Suppressed true, carrying the waiver's justification)
// interleaved with the active ones, plus the whole-program view — the
// SARIF emitter consumes the full list and the -lockgraph dump consumes
// the program.
func RunAll(pkgs, indexed []*Package, analyzers []*Analyzer) ([]Finding, *Program, error) {
	idx := buildIndex(indexed)
	prog := BuildProgram(indexed, idx)
	var findings []Finding
	for _, pkg := range pkgs {
		wm := collectWaivers(pkg)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Index:    idx,
				Prog:     prog,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				if a.WaiverVerb != "" {
					if w, ok := wm.lookup(pos.Filename, pos.Line, a.WaiverVerb); ok {
						w.used = true
						if w.reason != "" {
							// Justified waiver: suppressed but retained for
							// the SARIF audit trail.
							findings = append(findings, Finding{
								Analyzer:      a.Name,
								Pos:           pos,
								Message:       d.Message,
								Suppressed:    true,
								Justification: w.reason,
							})
							continue
						}
						findings = append(findings, Finding{
							Analyzer: a.Name,
							Pos:      pos,
							Message:  fmt.Sprintf("gkalint:%s waiver needs a justification", a.WaiverVerb),
						})
						continue
					}
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			findings = append(findings, unusedWaivers(wm, a)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, prog, nil
}

// unusedWaivers reports the package's waivers of a's verb that covered
// none of a's findings.
func unusedWaivers(wm waiverMap, a *Analyzer) []Finding {
	var out []Finding
	for _, lines := range wm {
		for _, ws := range lines {
			for _, w := range ws {
				if a.WaiverVerb != "" && w.verb == a.WaiverVerb && !w.used {
					out = append(out, Finding{
						Analyzer: a.Name,
						Pos:      w.pos,
						Message:  fmt.Sprintf("gkalint:%s waiver suppresses nothing", w.verb),
					})
				}
			}
		}
	}
	return out
}
