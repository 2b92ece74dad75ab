package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"idgka"
)

// processStart is when the process began; the first set-up is timed from
// here.
var processStart = time.Now()

// count is the part of a member's operation meter the benchmark checks:
// group exponentiations and GQ signature generations and verifications.
type count struct{ exp, gen, ver int }

func meterCount(r idgka.Report) count { return count{r.Exp, r.SignGen["GQ"], r.SignVer["GQ"]} }

func (c count) plus(o count) count  { return count{c.exp + o.exp, c.gen + o.gen, c.ver + o.ver} }
func (c count) minus(o count) count { return count{c.exp - o.exp, c.gen - o.gen, c.ver - o.ver} }

// stage is the latency of one named stage of a multi-stage op.
type stage struct {
	name string
	wall time.Duration
}

// opResult is what one op reports to the runner.
type opResult struct {
	wall   time.Duration
	stages []stage
	// expect holds the meter delta each member must show for the op.
	expect map[*idgka.Member]count
	err    error
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs op number seq of slot to completion and checks its keys.
	op(slot, seq int) opResult
	// members lists every member whose meter the runner checks.
	members() []*idgka.Member
	// begin marks the start of measurement for the instance's counters.
	begin()
	// report adds the instance's own per-layer metrics; ops is the number
	// of ops completed since begin.
	report(m map[string]float64, ops int)
	close()
}

// options configures one run.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	// setups is how many times the workload is set up; setup_s is the
	// median, and the last set-up is measured.
	setups int
	// small shrinks the workload for smoke tests.
	small bool
	// spans is where a traced run writes its spans ("" for nowhere).
	spans string
}

// env is the state the runner shares with a workload's ops and callbacks.
type env struct {
	seed  int64
	small bool
	cur   atomic.Pointer[tracer]
	bytes atomic.Int64
	msgs  atomic.Int64
}

// tracer returns the active tracer, nil while untraced.
func (e *env) tracer() *tracer { return e.cur.Load() }

// wire counts one transmitted packet with its payload.
func (e *env) wire(payload int) {
	e.bytes.Add(int64(payload))
	e.msgs.Add(1)
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// selfUS is each span name's self time per traced op, in µs.
	selfUS map[string]float64
}

// interval is one calibration interval: the ops run between two
// calibration pauses, with the figures taken around them. calib is the
// interval's calibration value (see calibAround).
type interval struct {
	traced               bool
	wall, cpu            time.Duration
	allocs, allocBytes   uint64
	gcCycles             uint64
	bytes, msgs          int64
	calib                float64
	completed, attempted int
	participations       int
	actual               count
	ops                  []opResult
	meterMismatch        bool
}

// runWorkload sets the workload up, warms it, measures it for
// o.duration and returns every metric of the catalogue.
func runWorkload(w workload, o options, log io.Writer) (result, error) {
	e := &env{seed: o.seed, small: o.small}

	// Set-up: build and warm up o.setups times; all but the last are torn
	// down again. The first is timed from process start. Each set-up is
	// divided by the mean of the calibration blocks run just before and
	// just after it.
	var setups, rawSetups []float64
	var after []float64
	var inst instance
	var seqs []int
	for i := 0; i < max(o.setups, 1); i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		before := calibrate()
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if inst, err = w.build(e); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		seqs = make([]int, w.slots)
		for s := range seqs {
			for ; seqs[s] < w.warm; seqs[s]++ {
				if r := inst.op(s, seqs[s]); r.err != nil {
					inst.close()
					return result{}, fmt.Errorf("%s: warm-up op: %w", w.name, r.err)
				}
			}
		}
		d := time.Since(t0)
		after = calibrate()
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, mexp(d, mean(append(before, after...)))*calibRef.Seconds())
	}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	inst.begin()
	rt0 := readRuntime()
	var ivs []interval
	// blocks[i] and blocks[i+1] are the calibration blocks run just before
	// and just after interval i.
	blocks := [][]float64{after}
	deadline := time.Now().Add(o.duration)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		iv := interval{traced: tr != nil && n%2 == 1}
		if iv.traced {
			e.cur.Store(tr)
		}
		mbs := inst.members()
		before := make([]count, len(mbs))
		for i, mb := range mbs {
			before[i] = meterCount(mb.Report())
		}
		b0, m0 := e.bytes.Load(), e.msgs.Load()
		r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		iv.ops = runInterval(inst, w, seqs, t0)
		iv.wall, iv.cpu = time.Since(t0), cpuTime()-c0
		r1 := readRuntime()
		iv.bytes, iv.msgs = e.bytes.Load()-b0, e.msgs.Load()-m0
		iv.allocs, iv.allocBytes, iv.gcCycles = r1.allocs-r0.allocs, r1.allocBytes-r0.allocBytes, r1.gcCycles-r0.gcCycles
		e.cur.Store(nil)

		// The meter check: every member's delta over the interval must
		// equal the sum of what its ops required, so an op that skips a
		// verification or an exponentiation fails instead of looking fast.
		want := map[*idgka.Member]count{}
		for k, r := range iv.ops {
			for mb, c := range r.expect {
				want[mb] = want[mb].plus(c)
			}
			iv.participations += len(r.expect)
			iv.ops[k].expect = nil // keep the run's memory flat
		}
		for i, mb := range mbs {
			got := meterCount(mb.Report()).minus(before[i])
			iv.actual = iv.actual.plus(got)
			if got != want[mb] {
				iv.meterMismatch = true
			}
		}
		blocks = append(blocks, calibrate())
		for _, r := range iv.ops {
			iv.attempted++
			if r.err == nil && !iv.meterMismatch {
				iv.completed++
			}
		}
		ivs = append(ivs, iv)
	}
	rt1 := readRuntime()
	var calibs []float64
	for i := range ivs {
		ivs[i].calib = calibAround(blocks, i)
		calibs = append(calibs, blocks[i+1]...)
	}
	if err := tr.writeSpans(o.spans); err != nil {
		fmt.Fprintf(log, "gkaperf: writing spans: %v\n", err)
	}

	m := map[string]float64{}
	for _, d := range catalogue {
		m[d.name] = 0
	}
	res := result{metrics: m}
	m["setup_s"] = quantile(setups, 0.5)
	m["raw.setup_s"] = quantile(rawSetups, 0.5)
	m["max_rss_mb"] = maxRSSMB()

	// End-to-end figures come from untraced intervals only, each timing
	// divided by its interval's calibration value.
	var opMexp, opMS, tracedMexp []float64
	stageMexp := map[string][]float64{}
	var wallMexp, cpuMexp, wallS, cpuMS float64
	var done, all, participations int
	var bytes, msgs int64
	var allocs, allocBytes, gcCycles uint64
	var actual count
	for _, iv := range ivs {
		res.attempted += iv.attempted
		res.failed += iv.attempted - iv.completed
		all += iv.completed
		for _, r := range iv.ops {
			if r.err != nil {
				fmt.Fprintf(log, "gkaperf: %s: op failed: %v\n", w.name, r.err)
			}
		}
		if iv.meterMismatch {
			fmt.Fprintf(log, "gkaperf: %s: operation meters disagree with the ops' expected counts\n", w.name)
		}
		if iv.traced {
			for _, r := range iv.ops {
				if r.err == nil && !iv.meterMismatch {
					tracedMexp = append(tracedMexp, mexp(r.wall, iv.calib))
				}
			}
			continue
		}
		for _, r := range iv.ops {
			if r.err != nil || iv.meterMismatch {
				continue
			}
			opMexp = append(opMexp, mexp(r.wall, iv.calib))
			opMS = append(opMS, ms(r.wall))
			for _, st := range r.stages {
				stageMexp[st.name] = append(stageMexp[st.name], mexp(st.wall, iv.calib))
			}
		}
		done += iv.completed
		wallMexp += mexp(iv.wall, iv.calib)
		cpuMexp += mexp(iv.cpu, iv.calib)
		wallS += iv.wall.Seconds()
		cpuMS += ms(iv.cpu)
		bytes += iv.bytes
		msgs += iv.msgs
		allocs += iv.allocs
		allocBytes += iv.allocBytes
		gcCycles += iv.gcCycles
		participations += iv.participations
		actual = actual.plus(iv.actual)
	}
	n := float64(done)
	m["op_mexp_p50"] = quantile(opMexp, 0.5)
	m["op_mexp_p90"] = quantile(opMexp, 0.9)
	m["ops_per_kmexp"] = 1000 * ratio(n, wallMexp)
	m["cpu_mexp_per_op"] = ratio(cpuMexp, n)
	m["wire_bytes_per_op"] = ratio(float64(bytes), n)

	m["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	m["paper.exp_per_member"] = ratio(float64(actual.exp), float64(participations))
	m["paper.sigver_per_member"] = ratio(float64(actual.ver), float64(participations))
	m["wire.msgs_per_op"] = ratio(float64(msgs), n)
	m["go.allocs_per_op"] = ratio(float64(allocs), n)
	m["go.alloc_kb_per_op"] = ratio(float64(allocBytes)/1024, n)
	m["go.gc_cycles_per_op"] = ratio(float64(gcCycles), n)
	m["go.gc_pause_us_p99"] = pauseQuantileUS(rt0.pauses, rt1.pauses, 0.99)
	m["calib.exp_us_p50"] = quantile(calibs, 0.5) / 1e3
	m["calib.exp_iqr_ratio"] = ratio(quantile(calibs, 0.75)-quantile(calibs, 0.25), quantile(calibs, 0.5))
	m["raw.op_ms_p50"] = quantile(opMS, 0.5)
	m["raw.op_ms_p90"] = quantile(opMS, 0.9)
	m["raw.ops_per_s"] = ratio(n, wallS)
	m["raw.cpu_ms_per_op"] = ratio(cpuMS, n)
	m["run.ops_completed"] = n
	m["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["serve.establish_mexp_p50"] = quantile(stageMexp["establish"], 0.5)
	m["serve.rekey_mexp_p50"] = quantile(stageMexp["rekey"], 0.5)
	m["serve.join_mexp_p50"] = quantile(stageMexp["join"], 0.5)
	inst.report(m, all)

	if tr != nil {
		res.selfUS = map[string]float64{}
		for _, sm := range shareMetrics {
			m[sm.metric] = tr.share(sm.span)
			res.selfUS[sm.span] = tr.selfPerOpUS(sm.span)
		}
		m["serve.tx_share"] = tr.inclShare(spanServeTransmit)
		m["session.start_us_p50"] = tr.durQuantile(spanSessionStart, 0.5)
		m["session.round2_us_p50"] = tr.durQuantile(spanSessionRound2, 0.5)
		m["session.finish_us_p50"] = tr.durQuantile(spanSessionFinish, 0.5)
		m["session.record_us_p50"] = tr.durQuantile(spanSessionRecord, 0.5)
		m["serve.start_us_p50"] = tr.durQuantile(spanServeStart, 0.5)
		m["serve.deliver_us_p50"] = tr.durQuantile(spanServeDeliver, 0.5)
		m["transport.send_us_p50"] = tr.durQuantile(spanTransportSend, 0.5)
		m["transport.send_us_p90"] = tr.durQuantile(spanTransportSend, 0.9)
		traced := quantile(tracedMexp, 0.5)
		m["trace.overhead_mexp_p50"] = traced - m["op_mexp_p50"]
		m["trace.overhead_share"] = ratio(traced-m["op_mexp_p50"], m["op_mexp_p50"])
		m["trace.dropped_spans"] = float64(tr.dropped)
	}
	return res, nil
}

// runInterval runs ops on every slot until the workload's calibration
// interval has passed (one op when it calibrates after every op) and
// returns their results once all slots are idle.
func runInterval(inst instance, w workload, seqs []int, t0 time.Time) []opResult {
	if w.slots == 1 && w.every == 0 {
		r := inst.op(0, seqs[0])
		seqs[0]++
		return []opResult{r}
	}
	var mu sync.Mutex
	var out []opResult
	var wg sync.WaitGroup
	for s := 0; s < w.slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := inst.op(s, seqs[s])
				seqs[s]++
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
				if w.every == 0 || time.Since(t0) >= w.every {
					return
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// calibWindow is how many calibration blocks on either side of an
// interval its calibration value is taken over.
const calibWindow = 5

// calibAround is the calibration value of interval i: the mean duration
// of the calibration ops in the calibWindow blocks run before it and the
// calibWindow blocks run after it. The duration of one calibration op
// wanders between a fast and a slow mode as the machine's other load
// comes and goes. A mean over a window of blocks follows that load more
// steadily than the median of the interval's own blocks, which jumps
// between the two modes.
func calibAround(blocks [][]float64, i int) float64 {
	var xs []float64
	for _, b := range blocks[max(0, i+1-calibWindow):min(len(blocks), i+1+calibWindow)] {
		xs = append(xs, b...)
	}
	return mean(xs)
}
