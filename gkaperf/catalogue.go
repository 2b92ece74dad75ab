package main

import "time"

// metricDef names one reported metric and its unit. e2e metrics are the
// ones a user of the system sees and are printed by untraced runs; the
// rest are per-layer metrics, printed by traced runs.
type metricDef struct {
	name, unit string
	e2e        bool
}

// catalogue lists every metric the benchmark prints, in print order.
// BENCHMARK.json at the repository root lists the same names and units.
var catalogue = []metricDef{
	{"setup_s", "s", true},
	{"op_mexp_p50", "mexp", true},
	{"op_mexp_p90", "mexp", true},
	{"ops_per_kmexp", "ops/kmexp", true},
	{"cpu_mexp_per_op", "mexp", true},
	{"wire_bytes_per_op", "B", true},
	{"max_rss_mb", "MB", true},

	{"fail_ratio", "ratio", false},
	{"session.start_us_p50", "us", false},
	{"session.round2_us_p50", "us", false},
	{"session.finish_us_p50", "us", false},
	{"session.record_us_p50", "us", false},
	{"session.record_calls_per_op", "count", false},
	{"session.start_share", "ratio", false},
	{"session.round2_share", "ratio", false},
	{"session.finish_share", "ratio", false},
	{"session.record_share", "ratio", false},
	{"serve.start_us_p50", "us", false},
	{"serve.deliver_us_p50", "us", false},
	{"serve.deliveries_per_op", "count", false},
	{"serve.queue_delay_ms_p50", "ms", false},
	{"serve.queue_delay_ms_p99", "ms", false},
	{"serve.peak_queue_depth", "count", false},
	{"serve.restarts", "count", false},
	{"serve.establish_mexp_p50", "mexp", false},
	{"serve.rekey_mexp_p50", "mexp", false},
	{"serve.join_mexp_p50", "mexp", false},
	{"serve.start_share", "ratio", false},
	{"serve.transmit_share", "ratio", false},
	{"serve.deliver_share", "ratio", false},
	{"serve.tx_share", "ratio", false},
	{"transport.send_us_p50", "us", false},
	{"transport.send_us_p90", "us", false},
	{"transport.sends_per_op", "count", false},
	{"transport.recv_msgs_per_wakeup", "count", false},
	{"transport.send_blocked_share", "ratio", false},
	{"bench.residue_share", "ratio", false},
	{"paper.exp_per_member", "count", false},
	{"paper.sigver_per_member", "count", false},
	{"wire.msgs_per_op", "count", false},
	{"go.allocs_per_op", "count", false},
	{"go.alloc_kb_per_op", "KB", false},
	{"go.gc_cycles_per_op", "count", false},
	{"go.gc_pause_us_p99", "us", false},
	{"calib.exp_us_p50", "us", false},
	{"calib.exp_iqr_ratio", "ratio", false},
	{"raw.op_ms_p50", "ms", false},
	{"raw.op_ms_p90", "ms", false},
	{"raw.ops_per_s", "1/s", false},
	{"raw.cpu_ms_per_op", "ms", false},
	{"raw.setup_s", "s", false},
	{"run.ops_completed", "count", false},
	{"run.gomaxprocs", "count", false},
	{"trace.overhead_mexp_p50", "mexp", false},
	{"trace.overhead_share", "ratio", false},
	{"trace.dropped_spans", "count", false},
}

// Span names: one per wrapped call into a layer's public functions.
const (
	spanSessionStart  = "session.start"  // Member.NewSession / LeaveSession / JoinSession
	spanSessionRound2 = "session.round2" // HandleMessage that emits the round-2 broadcast
	spanSessionFinish = "session.finish" // HandleMessage after which the session is done
	spanSessionRecord = "session.record" // any other HandleMessage
	spanServeStart    = "serve.start"    // Host.Start
	spanServeTransmit = "serve.transmit" // the host's Transmit callback
	spanServeDeliver  = "serve.deliver"  // Host.Deliver
	spanTransportSend = "transport.send" // Router.BroadcastState / SendState, up to the last ack
)

// shareMetrics maps each span name, and the root, to the metric that
// reports its self time as a share of op wall time. These shares sum to 1.
var shareMetrics = []struct{ span, metric string }{
	{spanSessionStart, "session.start_share"},
	{spanSessionRound2, "session.round2_share"},
	{spanSessionFinish, "session.finish_share"},
	{spanSessionRecord, "session.record_share"},
	{spanServeStart, "serve.start_share"},
	{spanServeTransmit, "serve.transmit_share"},
	{spanServeDeliver, "serve.deliver_share"},
	{spanTransportSend, "transport.send_blocked_share"},
	{rootName, "bench.residue_share"},
}

// workload is one closed-loop traffic mix.
type workload struct {
	name, why string
	// slots is the number of ops outstanding at once.
	slots int
	// every is the calibration interval: no op starts once it has passed,
	// and the calibration block runs when the slots are idle. 0 calibrates
	// after every op.
	every time.Duration
	// warm is how many warm-up ops each slot runs inside set-up.
	warm  int
	build func(e *env) (instance, error)
}

var workloads = []workload{
	{
		name:  "ring32",
		why:   "one 32-member ring keyed by a single goroutine through Session: crypto and engine do the work, serve and transport none",
		slots: 1, warm: 2, build: buildRing,
	},
	{
		name:  "serve-churn",
		why:   "serve.Host with 4-member rings over loopback, cycling establish, leave re-key and join: host dispatch carries a large share",
		slots: 2, every: 200 * time.Millisecond, warm: 3, build: buildChurn,
	},
	{
		name:  "tcp-hub",
		why:   "serve.Host behind transport.Router and Hub on 127.0.0.1, 4-node rings: framing, syscalls and ack round trips dominate",
		slots: 2, every: 200 * time.Millisecond, warm: 3, build: buildTCP,
	},
}
