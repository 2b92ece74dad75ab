package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"idgka"
	"idgka/internal/engine"
	"idgka/internal/metrics"
	"idgka/internal/serve"
	"idgka/internal/transport"
)

// opBudget bounds how long one stage of a host op may take before the op
// fails.
const opBudget = 30 * time.Second

// hostBench drives a serve.Host. For serve-churn the host transmits
// through an in-process loopback that delivers each broadcast to the
// sending session's ring only; for tcp-hub it transmits through a
// transport.Router attached to a transport.Hub on 127.0.0.1, and one pump
// per node feeds the router's inbox back into the host.
type hostBench struct {
	e    *env
	host *serve.Host
	ids  []string
	mbs  []*idgka.Member
	byID map[string]*idgka.Member

	// The ring of every live stage by session id, for the loopback.
	mu    sync.RWMutex
	rings map[string][]string

	hub    *transport.Hub
	router *transport.Router
	pumps  sync.WaitGroup

	sends, wakeups, recvMsgs    atomic.Int64
	sends0, wakeups0, recvMsgs0 int64
	delivered0, restarts0       uint64
}

// Engine and serve counters the benchmark reads from the process registry.
var (
	restartsTotal = metrics.Default.Counter("engine_restarts_total")
	queueDelay    = metrics.Default.Histogram("serve_queue_delay_ms")
)

// hostConfig is the host configuration gkanet -serve runs: defaults, with
// a 30 s per-run deadline.
var hostConfig = serve.Config{Deadline: 30 * time.Second}

func newHostBench(e *env, ids []string) (*hostBench, error) {
	b := &hostBench{e: e, ids: ids, rings: map[string][]string{}, byID: map[string]*idgka.Member{}}
	var err error
	if b.mbs, err = newMembers(e, ids); err != nil {
		return nil, err
	}
	for _, mb := range b.mbs {
		b.byID[mb.ID()] = mb
	}
	return b, nil
}

func (b *hostBench) addMembers() error {
	for _, mb := range b.mbs {
		if err := b.host.AddMember(mb); err != nil {
			return err
		}
	}
	return nil
}

// buildChurn sets up serve-churn: 16 hosted members behind the loopback.
// Each of the two slots draws its rings from its own half of the pool, so
// the members of one op see no traffic of the other.
func buildChurn(e *env) (instance, error) {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("churn-%02d", i)
	}
	b, err := newHostBench(e, ids)
	if err != nil {
		return nil, err
	}
	b.host = serve.NewHost(hostConfig, b.loopback)
	if err := b.addMembers(); err != nil {
		b.close()
		return nil, err
	}
	return churnBench{b}, nil
}

// buildTCP sets up tcp-hub: 4 nodes, each its own Router connection to
// the hub, all hosted by one Host. Every group spans all four nodes, as
// the hub relays every frame to every attached node.
func buildTCP(e *env) (instance, error) {
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i)
	}
	b, err := newHostBench(e, ids)
	if err != nil {
		return nil, err
	}
	if b.hub, err = transport.NewHub("127.0.0.1:0"); err != nil {
		return nil, err
	}
	b.router = transport.NewRouter(b.hub.Addr())
	b.host = serve.NewHost(hostConfig, b.transmitTCP)
	for _, id := range ids {
		if err := b.router.Attach(id, nil); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := b.addMembers(); err != nil {
		b.close()
		return nil, err
	}
	for _, id := range ids {
		b.pumps.Add(1)
		go b.pump(id)
	}
	return tcpBench{b}, nil
}

func (b *hostBench) members() []*idgka.Member { return b.mbs }

func (b *hostBench) close() {
	b.host.Close()
	if b.router != nil {
		b.router.Close()
		b.pumps.Wait()
	}
	if b.hub != nil {
		_ = b.hub.Close()
	}
}

func (b *hostBench) begin() {
	b.delivered0 = b.host.Stats().Delivered
	b.restarts0 = restartsTotal.Value()
	b.sends0, b.wakeups0, b.recvMsgs0 = b.sends.Load(), b.wakeups.Load(), b.recvMsgs.Load()
}

func (b *hostBench) report(m map[string]float64, ops int) {
	st := b.host.Stats()
	n := float64(ops)
	m["serve.deliveries_per_op"] = ratio(float64(st.Delivered-b.delivered0), n)
	m["serve.peak_queue_depth"] = float64(st.PeakQueueDepth)
	m["serve.restarts"] = float64(restartsTotal.Value() - b.restarts0)
	m["serve.queue_delay_ms_p50"] = finite(queueDelay.Quantile(0.5))
	m["serve.queue_delay_ms_p99"] = finite(queueDelay.Quantile(0.99))
	m["transport.sends_per_op"] = ratio(float64(b.sends.Load()-b.sends0), n)
	m["transport.recv_msgs_per_wakeup"] = ratio(float64(b.recvMsgs.Load()-b.recvMsgs0), float64(b.wakeups.Load()-b.wakeups0))
}

// finite maps NaN (an empty histogram) to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// loopback is serve-churn's Transmit: a unicast goes to its addressee, a
// broadcast to every other member of the sending session's ring.
func (b *hostBench) loopback(from string, p idgka.Packet) error {
	tr := b.e.tracer()
	s0, id := tr.now(), tr.newID()
	b.e.wire(len(p.Payload))
	sid := engine.EnvelopeSID(p.Payload)
	to := []string{p.To}
	if p.To == "" {
		b.mu.RLock()
		to = b.rings[sid]
		b.mu.RUnlock()
	}
	var err error
	for _, dst := range to {
		if dst == from {
			continue
		}
		d0 := tr.now()
		err = errors.Join(err, b.host.Deliver(dst, p))
		tr.addSID(sid, spanServeDeliver, 0, id, d0)
	}
	tr.addSID(sid, spanServeTransmit, id, 0, s0)
	return err
}

// transmitTCP is tcp-hub's Transmit: the router sends the packet through
// the hub and returns once every recipient acknowledged it.
func (b *hostBench) transmitTCP(from string, p idgka.Packet) error {
	tr := b.e.tracer()
	s0, id := tr.now(), tr.newID()
	b.e.wire(len(p.Payload))
	b.sends.Add(1)
	var err error
	if p.To == "" {
		err = b.router.BroadcastState(from, p.Type, p.Payload, p.StateLen)
	} else {
		err = b.router.SendState(from, p.To, p.Type, p.Payload, p.StateLen)
	}
	if tr != nil {
		sid := engine.EnvelopeSID(p.Payload)
		tr.addSID(sid, spanTransportSend, 0, id, s0)
		tr.addSID(sid, spanServeTransmit, id, 0, s0)
	}
	return err
}

// pump feeds one node's router inbox into the host until the router
// closes.
func (b *hostBench) pump(id string) {
	defer b.pumps.Done()
	for {
		msgs, err := b.router.RecvWait(id)
		if err != nil {
			return
		}
		b.wakeups.Add(1)
		b.recvMsgs.Add(int64(len(msgs)))
		for _, m := range msgs {
			tr := b.e.tracer()
			d0 := tr.now()
			_ = b.host.Deliver(id, idgka.Packet{From: m.From, To: m.To, Type: m.Type, Payload: m.Payload})
			if tr != nil {
				tr.addSID(engine.EnvelopeSID(m.Payload), spanServeDeliver, 0, 0, d0)
			}
		}
	}
}

// startFunc builds one member's session of a stage.
type startFunc func(mb *idgka.Member, id string) (*idgka.Session, error)

// runStage starts one session per ring member through Host.Start, waits
// for every run to settle and checks the ring agreed on one key. The
// stage's runs are returned even on failure, so the caller can close
// them.
func (b *hostBench) runStage(o *opTrace, sid string, ring []string, start startFunc) ([]*serve.Run, error) {
	tr := b.e.tracer()
	tr.bind(o, sid)
	b.mu.Lock()
	b.rings[sid] = ring
	b.mu.Unlock()
	var runs []*serve.Run
	for _, id := range ring {
		s0, sp := tr.now(), tr.newID()
		r, err := b.host.Start(id, sid, func(mb *idgka.Member) (*idgka.Session, error) {
			s1 := tr.now()
			s, err := start(mb, id)
			tr.add(o, spanSessionStart, 0, sp, s1)
			return s, err
		})
		tr.add(o, spanServeStart, sp, 0, s0)
		if err != nil {
			return runs, fmt.Errorf("%s: Host.Start: %w", id, err)
		}
		runs = append(runs, r)
	}
	return runs, settle(runs)
}

// settle waits until every run has settled, within opBudget, and checks
// that they committed one identical non-nil key. It arms one timer per
// stage and stops it: serve.SettleGroups arms a time.After per run, and
// under go 1.22 timer semantics each stays live until it fires, so the
// heap, and max_rss_mb with it, would grow with throughput.
func settle(runs []*serve.Run) error {
	timer := time.NewTimer(opBudget)
	defer timer.Stop()
	sessions := make([]*idgka.Session, len(runs))
	for i, r := range runs {
		select {
		case <-r.Done():
		case <-timer.C:
			return fmt.Errorf("run %s of %s timed out", r.Session().SID(), r.SID())
		}
		sessions[i] = r.Session()
	}
	return checkKeys(sessions)
}

// closeRuns closes the sessions of settled runs and forgets their rings.
func (b *hostBench) closeRuns(runs []*serve.Run) {
	for _, r := range runs {
		r.Session().Close()
		b.mu.Lock()
		delete(b.rings, r.SID())
		b.mu.Unlock()
	}
}

// tcpBench is the tcp-hub workload.
type tcpBench struct{ *hostBench }

// op establishes one group over all four nodes, its ring rotated so that
// successive groups have different controllers.
func (b tcpBench) op(slot, seq int) opResult {
	tr := b.e.tracer()
	sid := fmt.Sprintf("tcp/%d/%06d", slot, seq)
	ring := rotate(b.ids, 2*seq+slot)
	o := tr.open()
	ts, t0 := tr.now(), time.Now()
	runs, err := b.runStage(o, sid, ring, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
		return mb.NewSession(sid, ring)
	})
	res := opResult{wall: time.Since(t0), err: err, expect: map[*idgka.Member]count{}}
	tr.close(o, ts)
	for _, id := range ring {
		res.expect[b.byID[id]] = establishCount
	}
	b.closeRuns(runs)
	return res
}

// Op classes of serve-churn, cycled in this order by each slot.
const (
	classEstablish = iota
	classRekey
	classJoin
	numClasses
)

// churnBench is the serve-churn workload.
type churnBench struct{ *hostBench }

// op runs one serve-churn op: establish a 4-member ring from the slot's
// half of the pool and, by class, re-key it by evicting its last member
// (LeaveSession) or admit a fifth member (JoinSession).
func (b churnBench) op(slot, seq int) opResult {
	tr := b.e.tracer()
	half := b.ids[slot*len(b.ids)/2 : (slot+1)*len(b.ids)/2]
	all := rotate(half, seq)
	ring, joiner := all[:4], all[4]
	class := (seq + slot) % numClasses
	base := fmt.Sprintf("churn/%d/%06d/est", slot, seq)
	res := opResult{expect: map[*idgka.Member]count{}}
	o := tr.open()
	ts, t0 := tr.now(), time.Now()
	var opened []*serve.Run
	defer func() { b.closeRuns(opened) }()

	runs, err := b.runStage(o, base, ring, func(mb *idgka.Member, _ string) (*idgka.Session, error) {
		return mb.NewSession(base, ring)
	})
	opened = append(opened, runs...)
	res.stages = append(res.stages, stage{"establish", time.Since(t0)})
	for _, id := range ring {
		res.expect[b.byID[id]] = establishCount
	}
	if err == nil && class != classEstablish {
		sid, name, t1 := base[:len(base)-3], "", time.Now()
		var table []count
		switch class {
		case classRekey:
			sid, name, table = sid+"leave", "rekey", leaveCounts
			evict := ring[3:]
			runs, err = b.runStage(o, sid, ring[:3], func(mb *idgka.Member, _ string) (*idgka.Session, error) {
				return mb.LeaveSession(sid, base, evict)
			})
			ring = ring[:3]
		case classJoin:
			sid, name, table = sid+"join", "join", joinCounts
			old := ring
			ring = append(append([]string(nil), ring...), joiner)
			runs, err = b.runStage(o, sid, ring, func(mb *idgka.Member, id string) (*idgka.Session, error) {
				if id == joiner {
					return mb.JoinSession(sid, "", old, joiner)
				}
				return mb.JoinSession(sid, base, nil, joiner)
			})
		}
		opened = append(opened, runs...)
		res.stages = append(res.stages, stage{name, time.Since(t1)})
		for i, id := range ring {
			res.expect[b.byID[id]] = res.expect[b.byID[id]].plus(table[i])
		}
	}
	res.wall, res.err = time.Since(t0), err
	tr.close(o, ts)
	return res
}

// Per-member meter counts of the dynamic stages, by ring position. Leave
// evicts the last of four members: the survivors at even positions draw
// fresh z values and all three re-sign, reusing their GQ commitments as
// the paper specifies. Join admits a fifth member: the controller (first)
// and the last member do the Diffie-Hellman with the joiner, who comes
// last in the grown ring; the members between do no public-key work.
var (
	leaveCounts = []count{{3, 1, 1}, {2, 1, 1}, {3, 1, 1}}
	joinCounts  = []count{{2, 0, 1}, {}, {}, {1, 1, 1}, {2, 1, 1}}
)

// rotate returns ids rotated left by k.
func rotate(ids []string, k int) []string {
	k %= len(ids)
	return append(append([]string(nil), ids[k:]...), ids[:k]...)
}
