// Command gkabench regenerates the tables and figure of the paper's
// evaluation from instrumented protocol executions.
//
// Usage:
//
//	gkabench -all                      # everything at default parameters
//	gkabench -all -json                # same, as machine-readable JSON
//	gkabench -table 1 -n 10            # Table 1 at group size 10
//	gkabench -table 4 -n 100 -m 20 -ld 20
//	gkabench -table 5 -n 100 -m 20 -ld 20   # the paper's exact setting
//	gkabench -figure 1 -measured 50    # measure counters up to n=50
//
// With -json the command emits one JSON document on stdout: the runner
// fingerprint (GOMAXPROCS, Go version), the run parameters and, per
// regenerated artifact, its name, wall-clock cost and rendered output —
// so table snapshots (BENCH_*.json) can be captured mechanically across
// revisions and diffed. Speed is measured by gkaperf, not here.
//
// Tables 4 and 5 at the paper's n=100 execute tens of thousands of real
// signature verifications for the BD baseline and take a minute or two;
// the default n=40 keeps runs snappy while preserving every qualitative
// conclusion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"idgka/internal/analytic"
	"idgka/internal/experiments"
)

// record is one regenerated artifact in -json mode.
type record struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Output    string  `json:"output"`
}

// document is the top-level -json payload. Schema 3 drops schema 2's
// acceleration-benchmark op map, multi-group ladder and -parallel
// setting.
type document struct {
	Schema     int            `json:"schema"`
	GoVersion  string         `json:"go_version"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Params     map[string]int `json:"params"`
	Results    []record       `json:"results"`
	TotalMS    float64        `json:"total_ms"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gkabench: ")
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	figure := flag.Int("figure", 0, "regenerate one figure (1)")
	all := flag.Bool("all", false, "regenerate everything")
	n := flag.Int("n", 40, "current group size")
	m := flag.Int("m", 20, "merging group size")
	ld := flag.Int("ld", 20, "leaving/partitioned users")
	measured := flag.Int("measured", 10, "largest n measured (not extrapolated) in Figure 1")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	jsonOut := flag.Bool("json", false, "emit results as a JSON document on stdout")
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 && !*ablations {
		flag.Usage()
		os.Exit(2)
	}

	env, err := experiments.NewEnv()
	if err != nil {
		log.Fatalf("environment: %v", err)
	}
	doc := document{
		Schema:     3,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Params: map[string]int{
			"n": *n, "m": *m, "ld": *ld, "measured": *measured,
		},
	}
	begin := time.Now()
	run := func(name string, f func() (string, error)) {
		start := time.Now()
		out, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		elapsed := time.Since(start)
		doc.Results = append(doc.Results, record{
			Name:      name,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			Output:    out,
		})
		if !*jsonOut {
			fmt.Println(out)
			fmt.Printf("[%s regenerated in %v]\n\n", name, elapsed.Round(time.Millisecond))
		}
	}

	if *all || *table == 1 {
		run("Table 1", func() (string, error) { return env.Table1(*n) })
	}
	if *all || *table == 2 {
		run("Table 2", func() (string, error) { return experiments.Table2(), nil })
	}
	if *all || *table == 3 {
		run("Table 3", func() (string, error) { return experiments.Table3(), nil })
	}
	if *all || *figure == 1 {
		run("Figure 1", func() (string, error) { return env.Figure1(*measured) })
	}
	if *all || *table == 4 {
		run("Table 4", func() (string, error) { return env.Table4(*n, *m, *ld) })
	}
	if *all || *table == 5 {
		run("Table 5", func() (string, error) {
			return env.Table5(analytic.Table5Params{N: *n, M: *m, Ld: *ld})
		})
	}
	if *all || *ablations {
		run("Ablation: batch verification", func() (string, error) {
			return experiments.AblationBatchVerify([]int{10, 50, 100, 500}), nil
		})
		run("Ablation: strict nonce refresh", func() (string, error) {
			return env.AblationStrictNonces(*n, 1)
		})
		run("Related work (ING, GDH.2)", func() (string, error) {
			return env.RelatedWork(min(*n, 20))
		})
	}

	if *jsonOut {
		doc.TotalMS = float64(time.Since(begin).Microseconds()) / 1000
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatalf("encoding: %v", err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
