package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"idgka"
)

// SoakOptions tunes RunSoak, the churn driver behind cmd/gkaload: a fixed
// offered rate of group-lifecycle operations (establish / join / leave /
// crash-evict mixes) against one Host for a fixed duration, measuring
// time-to-key quantiles and admission-control shedding under sustained
// load. The zero value selects an 8-member pool, 3-member groups, 25
// ops/sec for 5 seconds and no watermarks.
type SoakOptions struct {
	// Pool is the hosted member pool; GroupSize the ring size each
	// operation draws (rotating) from it. Defaults: 8 and 3.
	Pool      int
	GroupSize int
	// Shards is the host's dispatch-lane count (0 = GOMAXPROCS).
	Shards int
	// Rate is the offered operation rate in ops/sec; Duration how long the
	// driver keeps offering. Defaults: 25/sec for 5s.
	Rate     float64
	Duration time.Duration
	// MaxShardQueue/MaxShardQueueAge feed straight into the host's
	// admission Config — zero watermarks soak the unbounded baseline.
	MaxShardQueue    int
	MaxShardQueueAge time.Duration
	// OpBudget bounds how long one admitted operation may take to settle
	// before it counts as failed. Default 30s.
	OpBudget time.Duration
	// Deadline is the per-run session deadline the host arms (the
	// retransmit driver). Default 10s.
	Deadline time.Duration
}

func (o SoakOptions) pool() int {
	if o.Pool > 0 {
		return o.Pool
	}
	return 8
}

func (o SoakOptions) groupSize() int {
	if o.GroupSize > 1 {
		return o.GroupSize
	}
	return 3
}

func (o SoakOptions) rate() float64 {
	if o.Rate > 0 {
		return o.Rate
	}
	return 25
}

func (o SoakOptions) duration() time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	return 5 * time.Second
}

func (o SoakOptions) opBudget() time.Duration {
	if o.OpBudget > 0 {
		return o.OpBudget
	}
	return 30 * time.Second
}

func (o SoakOptions) deadline() time.Duration {
	if o.Deadline > 0 {
		return o.Deadline
	}
	return 10 * time.Second
}

// soakMix is the deterministic operation cycle the driver offers: half
// plain establishments, the rest the dynamic flows (leave-based re-key,
// join, crash-evict) that stress sid routing and peer-down handling.
var soakMix = []string{"establish", "rekey", "establish", "join", "establish", "crash"}

// SoakOpStat is one operation class's outcome in a SoakReport.
type SoakOpStat struct {
	// Op names the class: "establish", "rekey", "join" or "crash".
	Op string `json:"op"`
	// Offered = Admitted + Shed; Admitted = Completed + Failed. A shed
	// operation hit ErrOverloaded at admission (nothing registered); a
	// failed one was admitted but did not settle a key within the budget.
	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"`
	Failed    int `json:"failed"`
	Completed int `json:"completed"`
	// P50MS/P99MS are exact time-to-key quantiles over the class's
	// completed operations (0 when none completed). An operation's clock
	// runs from its first Start to its last member's settle — dynamic
	// classes include the base establishment.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// SoakReport is the schema-2 JSON document cmd/gkaload emits
// (SOAK_*.json): offered/admitted/shed/failed/completed totals, exact
// time-to-key quantiles, and the host's queue high-water mark.
type SoakReport struct {
	Schema    int     `json:"schema"`
	Pool      int     `json:"pool"`
	GroupSize int     `json:"group_size"`
	Shards    int     `json:"shards"`
	Rate      float64 `json:"rate_per_sec"`
	// DurationMS is the offering window; the report settles every admitted
	// operation before closing, so wall time may exceed it.
	DurationMS float64 `json:"duration_ms"`
	// Admission watermarks the run was configured with (0 = disabled).
	MaxShardQueue    int     `json:"max_shard_queue"`
	MaxShardQueueAge float64 `json:"max_shard_queue_age_ms"`

	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"`
	Failed    int `json:"failed"`
	Completed int `json:"completed"`
	// ShedRate is Shed/Offered (0 with nothing offered).
	ShedRate float64 `json:"shed_rate"`
	// P50MS/P99MS are exact time-to-key quantiles over every completed
	// operation.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`

	Ops []SoakOpStat `json:"ops"`

	// Host counters at the end of the run: StartSheds is the number of
	// individual Start calls admission rejected (one shed operation may
	// count several), PeakQueueDepth the deepest any shard queue got.
	StartSheds     uint64 `json:"start_sheds"`
	PeakQueueDepth int    `json:"peak_queue_depth"`
	Delivered      uint64 `json:"delivered"`
}

// soakOp is one operation's outcome, streamed back to the aggregator.
type soakOp struct {
	class   string
	shed    bool
	failed  bool
	elapsed time.Duration
}

// RunSoak drives the configured churn mix against one freshly built Host
// over a loopback transport and reports the outcome. The error is only
// non-nil for harness-level faults (authority/member construction);
// operation failures are data, reported in the SoakReport.
func RunSoak(opt SoakOptions) (*SoakReport, error) {
	auth, err := idgka.NewAuthority()
	if err != nil {
		return nil, err
	}
	pool, size := opt.pool(), opt.groupSize()
	if size > pool {
		return nil, fmt.Errorf("soak: group size %d exceeds pool %d", size, pool)
	}
	lb := &loopback{}
	host := NewHost(Config{
		Shards:           opt.Shards,
		Deadline:         opt.deadline(),
		MaxShardQueue:    opt.MaxShardQueue,
		MaxShardQueueAge: opt.MaxShardQueueAge,
	}, lb.tx)
	lb.setHost(host)
	defer host.Close()
	ids := make([]string, pool)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak-%02d", i)
		mb, err := auth.NewMember(ids[i])
		if err != nil {
			return nil, err
		}
		if err := host.AddMember(mb); err != nil {
			return nil, err
		}
	}

	interval := time.Duration(float64(time.Second) / opt.rate())
	if interval <= 0 {
		interval = time.Microsecond
	}
	stopAt := time.Now().Add(opt.duration())
	results := make(chan soakOp, 1024)
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	n := 0
	for now := time.Now(); now.Before(stopAt); now = <-tick.C {
		class := soakMix[n%len(soakMix)]
		g := n
		n++
		wg.Add(1)
		go func() {
			defer wg.Done()
			//gkalint:unbounded every op goroutine deposits exactly one result and the aggregation loop below drains until close; the op itself is already bounded by opt.opBudget
			results <- runSoakOp(host, lb, ids, size, g, class, opt.opBudget())
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	report := &SoakReport{
		Schema: 2, Pool: pool, GroupSize: size, Shards: host.cfg.shards(),
		Rate: opt.rate(), DurationMS: float64(opt.duration().Microseconds()) / 1000,
		MaxShardQueue:    opt.MaxShardQueue,
		MaxShardQueueAge: float64(opt.MaxShardQueueAge.Microseconds()) / 1000,
	}
	perClass := map[string]*SoakOpStat{}
	durations := map[string][]time.Duration{}
	var all []time.Duration
	//gkalint:unbounded results is closed once the WaitGroup settles and every producer op is deadline-bounded by opt.opBudget, so this drain terminates
	for op := range results {
		st := perClass[op.class]
		if st == nil {
			st = &SoakOpStat{Op: op.class}
			perClass[op.class] = st
		}
		st.Offered++
		report.Offered++
		switch {
		case op.shed:
			st.Shed++
			report.Shed++
		case op.failed:
			st.Admitted++
			st.Failed++
			report.Admitted++
			report.Failed++
		default:
			st.Admitted++
			st.Completed++
			report.Admitted++
			report.Completed++
			durations[op.class] = append(durations[op.class], op.elapsed)
			all = append(all, op.elapsed)
		}
	}
	for _, class := range []string{"establish", "rekey", "join", "crash"} {
		st := perClass[class]
		if st == nil {
			continue
		}
		st.P50MS = exactQuantileMS(durations[class], 0.50)
		st.P99MS = exactQuantileMS(durations[class], 0.99)
		report.Ops = append(report.Ops, *st)
	}
	if report.Offered > 0 {
		report.ShedRate = float64(report.Shed) / float64(report.Offered)
	}
	report.P50MS = exactQuantileMS(all, 0.50)
	report.P99MS = exactQuantileMS(all, 0.99)
	st := host.Stats()
	report.StartSheds = st.Sheds
	report.PeakQueueDepth = st.PeakQueueDepth
	report.Delivered = st.Delivered
	return report, nil
}

// runSoakOp executes one operation: establish a fresh group, then (per
// class) re-key it by leave, grow it by join, or crash a member and evict
// it. Any Start shed by admission sheds the whole operation — runs the
// operation already started are cancelled, so nothing half-offered
// lingers — while post-admission errors or a blown budget fail it.
func runSoakOp(host *Host, lb *loopback, ids []string, size, g int, class string, budget time.Duration) soakOp {
	pool := len(ids)
	roster := make([]string, size)
	for j := range roster {
		roster[j] = ids[(g+j)%pool]
	}
	t0 := time.Now()
	out := soakOp{class: class}
	// stage runs one stage of the operation: register its roster on the
	// loopback, start one flow per member, then wait for every run and
	// check the group agreed on one non-nil key. It marks out shed or
	// failed and reports whether the stage completed.
	stage := func(sid string, members []string, start func(mb *idgka.Member, id string) (*idgka.Session, error)) bool {
		lb.addRoster(sid, members)
		runs, shed, err := startSoakGroup(host, sid, members, start)
		if !shed && err == nil {
			_, err = SettleGroups("soak", [][]*Run{runs}, budget)
		}
		out.shed, out.failed = shed, err != nil
		return !shed && err == nil
	}

	sidEst := fmt.Sprintf("soak/op%06d/est", g)
	if !stage(sidEst, roster, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
		return mb.NewSession(sidEst, roster)
	}) {
		return out
	}

	switch class {
	case "rekey":
		sid := fmt.Sprintf("soak/op%06d/leave", g)
		evict := roster[size-1]
		stage(sid, roster[:size-1], func(mb *idgka.Member, _ string) (*idgka.Session, error) {
			return mb.LeaveSession(sid, sidEst, []string{evict})
		})
	case "join":
		joiner := ids[(g+size)%pool]
		sid := fmt.Sprintf("soak/op%06d/join", g)
		grown := append(append([]string(nil), roster...), joiner)
		stage(sid, grown, func(mb *idgka.Member, id string) (*idgka.Session, error) {
			if id == joiner {
				return mb.JoinSession(sid, "", roster, joiner)
			}
			return mb.JoinSession(sid, sidEst, nil, joiner)
		})
	case "crash":
		victim := roster[size-1]
		survivors := roster[:size-1]
		for _, id := range survivors {
			// Protocol traffic is never shed; a failed Deliver here means
			// the host is closing, which the eviction below will surface.
			_ = host.Deliver(id, idgka.PeerDownPacket(victim))
		}
		sid := fmt.Sprintf("soak/op%06d/evict", g)
		stage(sid, survivors, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
			return mb.LeaveSession(sid, sidEst, []string{victim})
		})
	}
	// elapsed counts only for a completed operation; a shed or failed one
	// carries none into the report.
	out.elapsed = time.Since(t0)
	return out
}

// startSoakGroup starts one flow per roster member under sid. An
// ErrOverloaded from any member sheds the whole group: runs already
// started are cancelled and shed=true returns with no live state.
func startSoakGroup(host *Host, sid string, roster []string,
	start func(mb *idgka.Member, id string) (*idgka.Session, error)) (runs []*Run, shed bool, err error) {
	for _, id := range roster {
		id := id
		r, err := host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
			return start(mb, id)
		})
		if err != nil {
			for _, done := range runs {
				done.Cancel()
			}
			if errors.Is(err, ErrOverloaded) {
				return nil, true, nil
			}
			return nil, false, err
		}
		runs = append(runs, r)
	}
	return runs, false, nil
}

// exactQuantileMS computes the q-quantile of ds exactly (nearest-rank on
// the sorted slice), in milliseconds. 0 with no samples — soak reports
// are JSON, where NaN is unrepresentable.
func exactQuantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1].Microseconds()) / 1000
}
