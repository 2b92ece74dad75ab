package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"idgka/internal/lint"
	"idgka/internal/lint/analysis"
)

// suiteBudget bounds the whole-repo sweep's wall-clock time. The
// whole-program layer (call graph + bounded lock fixpoint) must stay
// cheap enough to run on every push; if the suite outgrows this, fix
// the engine, don't raise the budget.
const suiteBudget = 2 * time.Minute

// TestRepoIsClean is the meta-test the CI lint-gkalint job mirrors: the
// whole repository, with its deliberate waivers, must pass the full
// analyzer suite. A failure here means either a real regression of one
// of the encoded invariants or a new deliberate exception that needs a
// justified //gkalint waiver.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	start := time.Now()
	findings, err := lint.Check(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("lint.Check: %v", err)
	}
	if elapsed := time.Since(start); elapsed > suiteBudget {
		t.Errorf("suite took %v, over the %v budget — the whole-program pass has regressed", elapsed, suiteBudget)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d violation(s); fix them or waive with a justified //gkalint comment", len(findings))
	}
}

// repoRoot returns the module root, two directories above this file's.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// annotationCeiling pins, by verb, the //gkalint: annotations in the
// module's Go files outside internal/lint (fixtures and nested modules
// excluded); a verb not listed is pinned at 0. A count may fall; lower
// its pin with it. A rise means a new marker or waiver where a type or a
// fix could carry the invariant: secrets, for one, are secret by their
// type, mathx.Scalar.
var annotationCeiling = map[string]int{
	"bounded":   3,
	"callback":  3,
	"guard":     16,
	"unbounded": 7,
}

// varTimeCeiling pins, by package directory, the call sites of methods
// named ...VarTime in the same files, test files excluded; a package not
// listed is pinned at 0. Each such call is a variable-time view of a
// secret (a Scalar's BigVarTime), so a secret leaves its type only at a
// named, counted call. A count may fall; lower its pin with it.
var varTimeCeiling = map[string]int{
	".":                   1,
	"cmd/paramgen":        3,
	"internal/baseline":   1,
	"internal/engine":     11,
	"internal/mathx":      4,
	"internal/sigs/dsa":   2,
	"internal/sigs/ecdsa": 2,
	"internal/sigs/gq":    2,
	"internal/sigs/sok":   2,
}

// TestAnnotationRatchet counts the annotations and the ...VarTime call
// sites and fails above a pin.
func TestAnnotationRatchet(t *testing.T) {
	root := repoRoot(t)
	counts, varTime := map[string]int{}, map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "internal", "lint") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, analysis.WaiverPrefix); ok {
					verb, _, _ := strings.Cut(rest, " ")
					counts[verb]++
				}
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && strings.HasSuffix(sel.Sel.Name, "VarTime") {
					varTime[filepath.ToSlash(dir)]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ratchet(t, counts, annotationCeiling, "//gkalint:%s annotations outside internal/lint")
	ratchet(t, varTime, varTimeCeiling, "...VarTime call sites in %s")
}

// ratchet fails for every key counted above its ceiling (0 when not
// listed) and logs the ceilings that can fall. what names the counted
// thing, formatted with the key.
func ratchet(t *testing.T, counts, ceiling map[string]int, what string) {
	t.Helper()
	for key, n := range counts {
		if c := ceiling[key]; n > c {
			t.Errorf("%d "+what+", above the pinned %d", n, key, c)
		}
	}
	for key, c := range ceiling {
		if n := counts[key]; n < c {
			t.Logf("%d "+what+", pinned at %d; lower the pin", n, key, c)
		}
	}
}

// gkalintVerbLine matches one line of cmd/gkalint's analyzer list:
// "//	<analyzer> //gkalint:<verb> <invariant>".
var gkalintVerbLine = regexp.MustCompile(`(?m)^//\t(\w+) +//gkalint:(\w+) `)

// TestAnalyzerDocsMatchSuite is the docs meta-test for the analyzer
// list: docs/STATIC-ANALYSIS.md's analyzer table, its verb table and the
// analyzer list in cmd/gkalint's package comment must name exactly the
// analyzers of lint.Suite, each with its WaiverVerb. An analyzer added or
// deleted without its documentation fails here.
func TestAnalyzerDocsMatchSuite(t *testing.T) {
	root := repoRoot(t)
	suite := map[string]string{} // analyzer → waiver verb
	for _, a := range lint.Suite {
		suite[a.Name] = a.WaiverVerb
	}
	doc, err := os.ReadFile(filepath.Join(root, "docs", "STATIC-ANALYSIS.md"))
	if err != nil {
		t.Fatal(err)
	}
	analyzers := markdownTable(t, string(doc), "| Analyzer | Invariant | Origin |")
	if got, want := sortedKeys(analyzers), sortedKeys(suite); !slices.Equal(got, want) {
		t.Errorf("docs/STATIC-ANALYSIS.md's analyzer table names %v, lint.Suite runs %v", got, want)
	}
	verbs := map[string]string{}
	for verb, analyzer := range markdownTable(t, string(doc), "| Verb | Analyzer | Waives |") {
		verbs[strings.Trim(analyzer, "`")] = verb
	}
	if !maps.Equal(verbs, suite) {
		t.Errorf("docs/STATIC-ANALYSIS.md's verb table pairs analyzers with verbs %v, lint.Suite %v", verbs, suite)
	}
	src, err := os.ReadFile(filepath.Join(root, "cmd", "gkalint", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range gkalintVerbLine.FindAllStringSubmatch(string(src), -1) {
		listed[m[1]] = m[2]
	}
	if !maps.Equal(listed, suite) {
		t.Errorf("cmd/gkalint's package comment lists %v, lint.Suite %v", listed, suite)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// markdownTable returns the rows of the table under the given header
// line as first column → second column, backquotes trimmed from the
// first.
func markdownTable(t *testing.T, doc, header string) map[string]string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n"+header+"\n")
	if !ok {
		t.Fatalf("no table %q", header)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(body, "\n")[1:] { // past the |---| line
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			break
		}
		key := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := rows[key]; dup {
			t.Errorf("table %q lists %q twice", header, key)
		}
		rows[key] = strings.TrimSpace(cells[2])
	}
	return rows
}
