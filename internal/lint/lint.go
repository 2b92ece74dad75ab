// Package lint assembles the gkalint analyzer suite: the repo's crypto,
// locking and lifecycle invariants — each one a bug class a previous PR
// fixed by hand — encoded as mechanical checks so CI catches the next
// regression at review time instead of under -race in production.
//
// Run it locally with
//
//	go run ./cmd/gkalint ./...
//
// See each analyzer's package documentation for the invariant it
// enforces and the waiver syntax; docs/STATIC-ANALYSIS.md has the
// overview.
package lint

import (
	"idgka/internal/lint/analysis"
	"idgka/internal/lint/blockunderlock"
	"idgka/internal/lint/boundedwait"
	"idgka/internal/lint/consttime"
	"idgka/internal/lint/doccomment"
	"idgka/internal/lint/goroleak"
	"idgka/internal/lint/load"
	"idgka/internal/lint/lockcycle"
	"idgka/internal/lint/lockorder"
)

// Suite is every gkalint analyzer, in reporting order.
var Suite = []*analysis.Analyzer{
	blockunderlock.Analyzer,
	boundedwait.Analyzer,
	consttime.Analyzer,
	doccomment.Analyzer,
	goroleak.Analyzer,
	lockcycle.Analyzer,
	lockorder.Analyzer,
}

// Check loads the packages matching the go-list patterns rooted at dir
// and runs the whole suite, returning the surviving (un-waived)
// findings.
func Check(dir string, patterns ...string) ([]analysis.Finding, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, Suite)
}

// A Sweep is one full-suite run with everything the richer front ends
// need: active findings, waiver-suppressed findings with their
// justifications (for SARIF), and the whole-program lock engine (for the
// -lockgraph DOT dump).
type Sweep struct {
	// Active is the post-waiver findings — what Check returns.
	Active []analysis.Finding
	// Suppressed is the findings covered by justified waivers.
	Suppressed []analysis.Finding
	// Prog is the whole-program view of the swept packages.
	Prog *analysis.Program
}

// Run executes the full suite like Check, but retains the suppressed
// findings and the program view.
func Run(dir string, patterns ...string) (*Sweep, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	all, prog, err := analysis.RunAll(pkgs, pkgs, Suite)
	if err != nil {
		return nil, err
	}
	s := &Sweep{Prog: prog}
	for _, f := range all {
		if f.Suppressed {
			s.Suppressed = append(s.Suppressed, f)
		} else {
			s.Active = append(s.Active, f)
		}
	}
	return s, nil
}
