// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against `// want "regexp"` markers, mirroring
// golang.org/x/tools/go/analysis/analysistest over the in-tree
// framework. Fixtures live in a GOPATH-style tree (testdata/src/<path>)
// so they can replicate the real repo's import paths — an analyzer
// matching idgka/internal/mathx.Scalar sees the same fully-qualified name
// in fixtures and production code. Diagnostics pass through the central
// waiver filter, so negative fixtures prove //gkalint:<verb> comments
// suppress findings (and that justification-free waivers do not).
//
// Since PR 9 fixture arguments may be "dir/..." patterns: every package
// directory beneath testdata/src/dir is loaded as a target, which is how
// the interprocedural analyzers get multi-package fixtures — a lock
// declared in one fixture package, misused from another, with want
// markers on both sides of the import edge.
//
// Since PR 10 a fixture can also pin the analyzer's machine-readable
// surface: RunGolden renders the sweep — active findings and
// waiver-suppressed ones alike — as a SARIF log with URIs relative to
// testdata and compares it byte-for-byte against a checked-in golden
// file. Set GKALINT_UPDATE=1 to rewrite the golden after an intentional
// change.
package analysistest

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"idgka/internal/lint/analysis"
	"idgka/internal/lint/load"
	"idgka/internal/lint/sarif"
)

// TestData returns the caller's testdata directory root.
func TestData() string {
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want (.*)$")
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads each fixture package beneath testdata/src and reports, via
// t, any mismatch between the analyzer's findings and the fixtures'
// `// want` markers.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	problems, err := Problems(testdata, a, paths...)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}

// Problems is the harness core, separated from testing.T so the harness
// itself is testable: it runs the analyzer over the fixture packages and
// returns one message per mismatch — an unexpected diagnostic, or a want
// marker nothing matched. An empty slice means the fixture is green.
func Problems(testdata string, a *analysis.Analyzer, paths ...string) ([]string, error) {
	expanded, err := Expand(testdata, paths...)
	if err != nil {
		return nil, err
	}
	loader := load.NewSourceLoader(filepath.Join(testdata, "src"))
	var targets []*analysis.Package
	for _, p := range expanded {
		pkg, err := loader.Load(p)
		if err != nil {
			return nil, fmt.Errorf("loading fixture %q: %v", p, err)
		}
		targets = append(targets, pkg)
	}
	findings, err := analysis.RunWithIndex(targets, loader.Loaded(), []*analysis.Analyzer{a})
	if err != nil {
		return nil, fmt.Errorf("running %s: %v", a.Name, err)
	}
	wants, err := collectWants(loader.Fset, targets)
	if err != nil {
		return nil, err
	}

	var problems []string
	for _, f := range findings {
		if !matchWant(wants, f) {
			problems = append(problems, fmt.Sprintf("%s: unexpected diagnostic: %s", filepath.Base(f.Pos.Filename), f))
		}
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matched `%s`", filepath.Base(w.file), w.line, w.rx))
		}
	}
	return problems, nil
}

// RunGolden checks the analyzer's SARIF rendering of the fixture
// packages against the golden file at testdata/<golden>. Unlike Run it
// keeps waiver-suppressed findings, so the golden pins the suppression
// objects (kind inSource plus the waiver's justification) exactly as CI
// uploads them. When the environment variable GKALINT_UPDATE is set the
// golden is rewritten instead and the test passes.
func RunGolden(t *testing.T, testdata string, a *analysis.Analyzer, golden string, paths ...string) {
	t.Helper()
	got, err := GoldenSARIF(testdata, a, paths...)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	path := filepath.Join(testdata, golden)
	if os.Getenv("GKALINT_UPDATE") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("updating golden %s: %v", golden, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (rerun with GKALINT_UPDATE=1 to create it): %v", golden, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SARIF output diverges from %s (rerun with GKALINT_UPDATE=1 after verifying the change):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// GoldenSARIF is RunGolden's core: it runs the analyzer over the fixture
// packages keeping suppressed findings and renders the SARIF log with
// URIs relative to testdata (so goldens are machine-independent).
func GoldenSARIF(testdata string, a *analysis.Analyzer, paths ...string) ([]byte, error) {
	expanded, err := Expand(testdata, paths...)
	if err != nil {
		return nil, err
	}
	loader := load.NewSourceLoader(filepath.Join(testdata, "src"))
	var targets []*analysis.Package
	for _, p := range expanded {
		pkg, err := loader.Load(p)
		if err != nil {
			return nil, fmt.Errorf("loading fixture %q: %v", p, err)
		}
		targets = append(targets, pkg)
	}
	findings, _, err := analysis.RunAll(targets, loader.Loaded(), []*analysis.Analyzer{a})
	if err != nil {
		return nil, fmt.Errorf("running %s: %v", a.Name, err)
	}
	var buf bytes.Buffer
	if err := sarif.New([]*analysis.Analyzer{a}, findings, testdata).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Expand resolves fixture arguments to package paths: a plain path names
// one package, "dir/..." every directory beneath testdata/src/dir that
// contains .go files, in sorted order.
func Expand(testdata string, paths ...string) ([]string, error) {
	src := filepath.Join(testdata, "src")
	var out []string
	for _, p := range paths {
		dir, ok := strings.CutSuffix(p, "/...")
		if !ok {
			out = append(out, p)
			continue
		}
		var found []string
		root := filepath.Join(src, filepath.FromSlash(dir))
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() && strings.HasSuffix(path, ".go") {
				rel, err := filepath.Rel(src, filepath.Dir(path))
				if err != nil {
					return err
				}
				found = append(found, filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("expanding fixture pattern %q: %v", p, err)
		}
		sort.Strings(found)
		prev := ""
		for _, f := range found {
			if f != prev {
				out = append(out, f)
				prev = f
			}
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("fixture pattern %q matched no packages", p)
		}
	}
	return out, nil
}

func matchWant(wants []*want, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants scans fixture comments for want markers. A marker expects
// its diagnostics on its own line; several quoted or backquoted regexps
// may follow one marker.
func collectWants(fset *token.FileSet, pkgs []*analysis.Package) ([]*want, error) {
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					args := wantArgRe.FindAllStringSubmatch(m[1], -1)
					if len(args) == 0 {
						return nil, fmt.Errorf("%s:%d: malformed want marker %q", pos.Filename, pos.Line, c.Text)
					}
					for _, arg := range args {
						pat := arg[1]
						if pat == "" {
							pat = unquote(arg[2])
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
					}
				}
			}
		}
	}
	return wants, nil
}

func unquote(s string) string {
	r := strings.NewReplacer(`\"`, `"`, `\\`, `\`)
	return r.Replace(s)
}

// Fprint is a debugging aid: it renders findings one per line.
func Fprint(findings []analysis.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintln(&b, f)
	}
	return b.String()
}
