// Command gkalint runs the repo's invariant analyzers (internal/lint)
// over the packages matching its go-list pattern arguments:
//
//	go run ./cmd/gkalint ./...
//	go run ./cmd/gkalint -json ./...
//	go run ./cmd/gkalint -sarif gkalint.sarif -lockgraph locks.dot ./...
//
// Each finding prints as file:line:col: message (analyzer); with -json
// the run emits a single JSON object carrying the findings and the
// suite's wall-clock time, for CI artifacts. -sarif writes a SARIF
// 2.1.0 log (one rule per analyzer; waived findings appear with an
// inSource suppression carrying the waiver's justification) that GitHub
// code scanning ingests. -lockgraph writes the whole-program lock
// acquisition graph as Graphviz DOT, cycle participants highlighted.
// Exit codes are distinct so scripts can tell "dirty" from "broken":
// 0 means the sweep is clean, 1 that un-waived findings survive, 2 that
// loading or the analyzers themselves failed.
//
// A site that deliberately breaks an invariant is waived in source with
// a justified control comment — //gkalint:<verb> <reason> on the
// offending line or the line above; a waiver without a reason is itself
// a finding, and so is a waiver that suppresses nothing (its analyzer
// ran but reported nothing it covers). The analyzers and their verbs:
//
//	blockunderlock //gkalint:blocked   no unbounded blocking while a lock is held (PR 10)
//	boundedwait    //gkalint:unbounded transport waits need deadlines (PR 4)
//	consttime      //gkalint:vartime   crypto hot paths stay secret-independent (PR 9)
//	doccomment     //gkalint:nodoc     operator-facing exports carry godoc (PR 8)
//	goroleak       //gkalint:bounded   goroutines need a visible shutdown path (PR 9)
//	lockcycle      //gkalint:lockcycle lock acquisition order stays acyclic (PR 10)
//	lockorder      //gkalint:unlocked  guarded state needs its documented lock (interprocedural since PR 10)
//
// Key material needs no analyzer: every secret is a mathx.Scalar, which
// formats as a redaction and holds its words behind a pointer, and its
// one raw view, BigVarTime, is a named call that internal/lint's
// TestAnnotationRatchet counts per package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"idgka/internal/lint"
	"idgka/internal/lint/analysis"
	"idgka/internal/lint/sarif"
)

// jsonFinding is one finding in machine-readable form.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is the -json output envelope.
type jsonReport struct {
	Findings  []jsonFinding `json:"findings"`
	Count     int           `json:"count"`
	ElapsedMS int64         `json:"elapsed_ms"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a single JSON object on stdout")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log (active + suppressed findings) to `file`")
	graphOut := flag.String("lockgraph", "", "write the lock acquisition graph as Graphviz DOT to `file`")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gkalint [-json] [-sarif file] [-lockgraph file] [packages]\n\nruns the idgka invariant analyzers; see package docs under internal/lint\nexit codes: 0 clean, 1 findings, 2 load/internal error\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gkalint:", err)
		os.Exit(2)
	}
	start := time.Now()
	sweep, err := lint.Run(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gkalint:", err)
		os.Exit(2)
	}
	findings := sweep.Active
	if *sarifOut != "" {
		all := make([]analysis.Finding, 0, len(findings)+len(sweep.Suppressed))
		all = append(all, findings...)
		all = append(all, sweep.Suppressed...)
		if err := writeSARIF(*sarifOut, all, dir); err != nil {
			fmt.Fprintln(os.Stderr, "gkalint:", err)
			os.Exit(2)
		}
	}
	if *graphOut != "" {
		if err := os.WriteFile(*graphOut, []byte(sweep.Prog.Locks().DOT()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gkalint:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		report := jsonReport{
			Findings:  []jsonFinding{},
			Count:     len(findings),
			ElapsedMS: time.Since(start).Milliseconds(),
		}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "gkalint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gkalint: %d violation(s)\n", len(findings))
		os.Exit(1)
	}
}

// writeSARIF renders the sweep (active and waiver-suppressed findings
// alike) as a SARIF log at path, URIs relative to root.
func writeSARIF(path string, findings []analysis.Finding, root string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	log := sarif.New(lint.Suite, findings, root)
	if err := log.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
