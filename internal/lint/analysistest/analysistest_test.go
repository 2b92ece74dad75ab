package analysistest_test

import (
	"go/ast"
	"strings"
	"testing"

	"idgka/internal/lint/analysis"
	"idgka/internal/lint/analysistest"
)

// badFunc is a minimal deterministic analyzer for exercising the
// harness itself: it flags every function declared with the name Bad.
var badFunc = &analysis.Analyzer{
	Name:       "badfunc",
	Doc:        "harness test analyzer: flags functions named Bad",
	WaiverVerb: "badok",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Bad" {
					pass.Reportf(fd.Pos(), "function Bad declared")
				}
			}
		}
		return nil
	},
}

func TestExpandPattern(t *testing.T) {
	got, err := analysistest.Expand(analysistest.TestData(), "multi/...")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"multi/dep", "multi/root"}
	if len(got) != len(want) {
		t.Fatalf("Expand(multi/...) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Expand(multi/...) = %v, want %v", got, want)
		}
	}
}

func TestExpandPlainPathPassesThrough(t *testing.T) {
	got, err := analysistest.Expand(analysistest.TestData(), "mismatch")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "mismatch" {
		t.Fatalf("Expand(mismatch) = %v", got)
	}
}

func TestExpandNoMatch(t *testing.T) {
	if _, err := analysistest.Expand(analysistest.TestData(), "nosuch/..."); err == nil {
		t.Fatal("Expand(nosuch/...) succeeded, want error")
	}
}

// TestMultiPackage runs the full harness over the two-package fixture:
// markers in both the root and the imported package must be honored.
func TestMultiPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), badFunc, "multi/...")
}

// TestWaivers runs the waiver fixture: a waiver that suppresses nothing
// is a finding at the waiver itself.
func TestWaivers(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), badFunc, "waivers")
}

// TestProblemsReportsBothDirections checks the harness core catches an
// unexpected diagnostic and an unmatched marker.
func TestProblemsReportsBothDirections(t *testing.T) {
	problems, err := analysistest.Problems(analysistest.TestData(), badFunc, "mismatch")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("Problems = %v, want 2 entries", problems)
	}
	var unexpected, unmatched bool
	for _, p := range problems {
		if strings.Contains(p, "unexpected diagnostic") {
			unexpected = true
		}
		if strings.Contains(p, "no diagnostic matched") {
			unmatched = true
		}
	}
	if !unexpected || !unmatched {
		t.Fatalf("Problems = %v, want one unexpected-diagnostic and one unmatched-marker entry", problems)
	}
}
