package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that no op fails and every metric is reported.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{seed: 7, duration: 300 * time.Millisecond, trace: traced, setups: 1, small: true}
				if traced {
					o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := runWorkload(w, o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				m := res.metrics
				if res.attempted < 1 || res.failed != 0 || m["fail_ratio"] != 0 {
					t.Fatalf("attempted=%d failed=%d fail_ratio=%v", res.attempted, res.failed, m["fail_ratio"])
				}
				for _, d := range catalogue {
					v, ok := m[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", d.name, v, ok)
					}
				}
				for _, name := range []string{"setup_s", "op_mexp_p50", "op_mexp_p90", "ops_per_kmexp", "cpu_mexp_per_op", "wire_bytes_per_op", "max_rss_mb"} {
					if m[name] <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m[name])
					}
				}
				if m["paper.exp_per_member"] < 3 || m["paper.sigver_per_member"] < 1 {
					t.Errorf("meter counts per member: exp %v sigver %v", m["paper.exp_per_member"], m["paper.sigver_per_member"])
				}
				if !traced {
					return
				}
				sum := 0.0
				for _, sm := range shareMetrics {
					sum += m[sm.metric]
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Errorf("self-time shares sum to %v, want 1", sum)
				}
				if m["session.start_us_p50"] <= 0 {
					t.Error("traced run recorded no session.start spans")
				}
				if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
					t.Errorf("spans file: %v", err)
				}
			})
		}
	}
}

// TestMeterCheckCatchesSkippedWork checks that an op whose expected
// meter counts are not met fails, as a change that skips a verification
// would.
func TestMeterCheckCatchesSkippedWork(t *testing.T) {
	w := workloads[0]
	build := w.build
	w.build = func(e *env) (instance, error) {
		inst, err := build(e)
		return lying{inst}, err
	}
	res, err := runWorkload(w, options{seed: 1, duration: 100 * time.Millisecond, setups: 1, small: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.failed != res.attempted {
		t.Errorf("failed=%d of %d, want every op failed", res.failed, res.attempted)
	}
}

// lying wraps an instance and claims each op needed one more
// verification per member than it did.
type lying struct{ instance }

func (l lying) op(slot, seq int) opResult {
	r := l.instance.op(slot, seq)
	for mb, c := range r.expect {
		r.expect[mb] = c.plus(count{ver: 1})
	}
	return r
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "ring32", "--seconds", "0"},
		{"--workload", "ring32", "--trace", "2"},
		{"--workload", "ring32", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("run(%q) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue checks that BENCHMARK.json at the
// repository root lists exactly the workloads and metrics this program
// prints, with the same units.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	listed := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, d := range catalogue {
		if unit, ok := listed[d.name]; !ok || unit != d.unit || e2e[d.name] != d.e2e {
			t.Errorf("metric %s (%s, end-to-end %v) not listed the same in BENCHMARK.json", d.name, d.unit, d.e2e)
		}
		delete(listed, d.name)
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json lists %s, which the program does not print", name)
	}
}
