// Command gkaperf is the repository's end-to-end benchmark. It drives the
// shipped code through its public entry points on three closed-loop
// workloads — ring32 (idgka.Member and Session), serve-churn (serve.Host
// over an in-process loopback) and tcp-hub (serve.Host behind
// transport.Router and Hub on 127.0.0.1) — checks every op's keys and
// operation meters, and prints its metrics by name and unit. Timings are
// reported in mexp, the duration of one calibration op (a 1024-bit modular
// exponentiation) timed in the same interval, so the figures measure the
// program rather than the shared machine. See README.md.
//
// Usage:
//
//	bash gkaperf/run.sh --workload ring32 --seed 1 --seconds 20 --trace 0
//	bash gkaperf/run.sh --workload all --seconds 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 runs traced and untraced intervals alternately,
// prints the per-layer metrics and writes the spans of the first traced
// ops to .bench_build/spans/. A table of every metric goes to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gkaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ring32, serve-churn, tcp-hub, or all")
	seed := fs.Int64("seed", 1, "seed the members' randomness is drawn from")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "gkaperf: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "gkaperf: unknown workload %q\n", *name)
		return 2
	}
	for _, w := range chosen {
		o := options{
			seed:     *seed,
			duration: time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			setups:   setups,
		}
		if o.trace {
			o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, o.seed))
		}
		fmt.Fprintf(stdout, "# gkaperf workload=%s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d\n",
			w.name, o.seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0))
		res, err := runWorkload(w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "gkaperf: %v\n", err)
			return 1
		}
		printTable(stderr, w.name, res, o.trace)
		line := resultLine{
			Correct:   res.failed == 0,
			Attempted: res.attempted,
			Failed:    res.failed,
			Metrics:   map[string]metricValue{},
		}
		for _, d := range catalogue {
			if d.e2e != o.trace {
				line.Metrics[d.name] = metricValue{res.metrics[d.name], d.unit}
			}
		}
		js, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "gkaperf: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(js))
	}
	return 0
}

// printTable writes every metric of a run, the printed ones first, and
// for a traced run the self-time shares with their sum.
func printTable(w io.Writer, name string, res result, traced bool) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed\n", name, res.attempted, res.failed)
	for _, printed := range []bool{true, false} {
		for _, d := range catalogue {
			if (d.e2e != traced) == printed {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, res.metrics[d.name], d.unit)
			}
		}
		if printed {
			fmt.Fprintln(w, "  "+strings.Repeat("-", 40))
		}
	}
	if traced {
		fmt.Fprintln(w, "  self time per traced op:")
		sum := 0.0
		for _, sm := range shareMetrics {
			sum += res.metrics[sm.metric]
			fmt.Fprintf(w, "    %-18s %12.1f us  %6.2f%%\n", sm.span, res.selfUS[sm.span], 100*res.metrics[sm.metric])
		}
		fmt.Fprintf(w, "  self-time shares sum to %.4f; tracing overhead %.4f mexp (%.2f%%) on op p50\n",
			sum, res.metrics["trace.overhead_mexp_p50"], 100*res.metrics["trace.overhead_share"])
	}
}
