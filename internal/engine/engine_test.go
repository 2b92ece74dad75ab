package engine_test

import (
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// node couples a machine with its captured lifecycle events.
type node struct {
	mc     *engine.Machine
	events []engine.Event
}

func (n *node) record(evts []engine.Event) {
	n.events = append(n.events, evts...)
}

// established returns the committed group of a session id seen in this
// node's events, or nil.
func (n *node) established(sid string) *engine.Group {
	for _, ev := range n.events {
		if ev.Kind == engine.EventEstablished && ev.SID == sid {
			return ev.Group
		}
	}
	return nil
}

func (n *node) failures() []engine.Event {
	var out []engine.Event
	for _, ev := range n.events {
		if ev.Kind == engine.EventFailed {
			out = append(out, ev)
		}
	}
	return out
}

// buildNodes extracts identity keys and creates one machine per id.
func buildNodes(t testing.TB, ids []string) map[string]*node {
	t.Helper()
	return nodesWith(t, ids, engine.Config{Set: params.Default().Public()})
}

// nodesWith creates one machine per id under cfg.
func nodesWith(t testing.TB, ids []string, cfg engine.Config) map[string]*node {
	t.Helper()
	set := params.Default()
	nodes := map[string]*node{}
	for _, id := range ids {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := engine.NewMachine(cfg, sk, meter.New())
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = &node{mc: mc}
	}
	return nodes
}

// bus is a deterministic in-order message router: deliveries happen in
// send order, with no driver logic beyond forwarding engine outbounds.
type bus struct {
	t     *testing.T
	nodes map[string]*node
	order []string
	queue []busDelivery
	// onStep, when set, sees every delivered message with the machine's
	// reaction to it.
	onStep func(msg netsim.Message, outs []engine.Outbound)
}

type busDelivery struct {
	to  string
	msg netsim.Message
}

func newBus(t *testing.T, nodes map[string]*node, order []string) *bus {
	return &bus{t: t, nodes: nodes, order: order}
}

// send fans an outbound into the queue (broadcast = every other node).
func (b *bus) send(from string, outs []engine.Outbound) {
	for _, o := range outs {
		msg := netsim.Message{From: from, To: o.To, Type: o.Type, Payload: o.Payload}
		if o.To != "" {
			if _, ok := b.nodes[o.To]; ok {
				b.queue = append(b.queue, busDelivery{to: o.To, msg: msg})
			}
			continue
		}
		for _, id := range b.order {
			if id != from {
				b.queue = append(b.queue, busDelivery{to: id, msg: msg})
			}
		}
	}
}

// pump delivers queued messages in FIFO order until quiescent.
func (b *bus) pump() {
	for len(b.queue) > 0 {
		d := b.queue[0]
		b.queue = b.queue[1:]
		nd := b.nodes[d.to]
		outs, evts := nd.mc.Step(d.msg)
		if b.onStep != nil {
			b.onStep(d.msg, outs)
		}
		nd.record(evts)
		b.send(d.to, outs)
	}
}

// start begins a flow on one node and routes its opening messages.
func (b *bus) start(id string, begin func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
	b.t.Helper()
	nd := b.nodes[id]
	outs, evts, err := begin(nd.mc)
	if err != nil {
		b.t.Fatalf("start on %s: %v", id, err)
	}
	nd.record(evts)
	b.send(id, outs)
}

// assertSession checks every listed node committed sid with one shared,
// non-nil key, and returns it.
func assertSession(t *testing.T, nodes map[string]*node, ids []string, sid string) *big.Int {
	t.Helper()
	var key *big.Int
	for _, id := range ids {
		if fs := nodes[id].failures(); len(fs) > 0 {
			t.Fatalf("%s reported failure: %v", id, fs[0].Err)
		}
		g := nodes[id].established(sid)
		if g == nil || g.Key == nil {
			t.Fatalf("%s did not establish session %q", id, sid)
		}
		if key == nil {
			key = g.Key
		} else if key.Cmp(g.Key) != 0 {
			t.Fatalf("%s disagrees on the key of session %q", id, sid)
		}
	}
	if key.Sign() == 0 {
		t.Fatal("zero group key")
	}
	return key
}

// TestEngineLifecycleOrdered is the tentpole acceptance path: establish a
// group, admit a joiner and evict a member purely by routing
// engine-emitted messages — no Run* driver involved.
// TestNewMachineValidation covers the constructor's error paths and the
// fresh machine's state, including the defaulted retry budget.
func TestNewMachineValidation(t *testing.T) {
	set := params.Default()
	sk, _ := gq.Extract(set.RSA, "x")
	if _, err := engine.NewMachine(engine.Config{}, sk, nil); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := engine.NewMachine(engine.Config{Set: set.Public()}, nil, nil); err == nil {
		t.Fatal("nil key accepted")
	}
	mc, err := engine.NewMachine(engine.Config{Set: set.Public()}, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Key() != nil || mc.Group() != nil {
		t.Fatal("fresh machine must have no group")
	}
	if mc.Retries() != 2 {
		t.Fatalf("default retry budget %d, want 2", mc.Retries())
	}
	mc, _ = engine.NewMachine(engine.Config{Set: set.Public(), MaxRetries: 5}, sk, nil)
	if mc.Retries() != 5 {
		t.Fatalf("retry budget %d, want 5", mc.Retries())
	}
}

func TestEngineLifecycleOrdered(t *testing.T) {
	ring := []string{"U01", "U02", "U03", "U04"}
	all := append(append([]string(nil), ring...), "J01")
	nodes := buildNodes(t, all)
	b := newBus(t, nodes, all)

	// Establish over the four founders.
	for _, id := range ring {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("s-init", ring)
		})
	}
	b.pump()
	initialKey := assertSession(t, nodes, ring, "s-init")

	// Join: every participant (old ring + joiner) starts the same flow.
	for _, id := range all {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartJoin("s-join", "s-init", ring, "J01")
		})
	}
	b.pump()
	joinKey := assertSession(t, nodes, all, "s-join")
	if joinKey.Cmp(initialKey) == 0 {
		t.Fatal("join did not refresh the group key")
	}
	for _, id := range all {
		if g := nodes[id].established("s-join"); g.Size() != 5 || g.Last() != "J01" {
			t.Fatalf("%s: bad post-join ring %v", id, g.Roster)
		}
	}

	// Leave: U02 departs; survivors re-key among themselves. The stale set
	// (members without a stored commitment, here the joiner) comes from
	// each survivor's own session state.
	stale := map[string]bool{}
	for _, id := range all {
		if g := nodes[id].established("s-join"); g.Tau == nil {
			stale[id] = true
		}
	}
	newRoster, refresh, err := engine.PlanPartition(all, []string{"U02"}, stale)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range newRoster {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartPartition("s-leave", "s-join", newRoster, refresh)
		})
	}
	b.pump()
	leaveKey := assertSession(t, nodes, newRoster, "s-leave")
	if leaveKey.Cmp(joinKey) == 0 {
		t.Fatal("leave did not refresh the group key")
	}
	for _, id := range newRoster {
		if g := nodes[id].established("s-leave"); g.Position("U02") != -1 {
			t.Fatalf("%s still lists the leaver", id)
		}
	}
}

// TestEngineLifecycleShuffled replays the same lifecycle under the async
// scheduler: every message joins a lottery and is delivered in seeded
// random order, so rounds interleave and arrive early or late.
func TestEngineLifecycleShuffled(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ring := []string{"U01", "U02", "U03", "U04", "U05"}
			all := append(append([]string(nil), ring...), "J01")
			nodes := buildNodes(t, all)
			async := netsim.NewAsync(seed)
			for _, id := range all {
				id := id
				nd := nodes[id]
				err := async.Register(id, nd.mc.Meter(), func(msg netsim.Message) error {
					outs, evts := nd.mc.Step(msg)
					nd.record(evts)
					return sendAll(async, id, outs)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			begin := func(ids []string, f func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
				t.Helper()
				for _, id := range ids {
					outs, evts, err := f(nodes[id].mc)
					if err != nil {
						t.Fatalf("start on %s: %v", id, err)
					}
					nodes[id].record(evts)
					if err := sendAll(async, id, outs); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := async.Run(0); err != nil {
					t.Fatal(err)
				}
			}

			begin(ring, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartInitial("s-init", ring)
			})
			initialKey := assertSession(t, nodes, ring, "s-init")

			begin(all, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartJoin("s-join", "s-init", ring, "J01")
			})
			joinKey := assertSession(t, nodes, all, "s-join")
			if joinKey.Cmp(initialKey) == 0 {
				t.Fatal("join did not refresh the group key")
			}

			stale := map[string]bool{}
			for _, id := range all {
				if g := nodes[id].established("s-join"); g.Tau == nil {
					stale[id] = true
				}
			}
			newRoster, refresh, err := engine.PlanPartition(all, []string{"U03"}, stale)
			if err != nil {
				t.Fatal(err)
			}
			begin(newRoster, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartPartition("s-leave", "s-join", newRoster, refresh)
			})
			leaveKey := assertSession(t, nodes, newRoster, "s-leave")
			if leaveKey.Cmp(joinKey) == 0 {
				t.Fatal("leave did not refresh the group key")
			}
		})
	}
}

// TestEngineMergeShuffled fuses two independently keyed rings under
// randomized delivery.
func TestEngineMergeShuffled(t *testing.T) {
	ringA := []string{"A01", "A02", "A03"}
	ringB := []string{"B01", "B02"}
	all := append(append([]string(nil), ringA...), ringB...)
	nodes := buildNodes(t, all)
	async := netsim.NewAsync(42)
	for _, id := range all {
		id := id
		nd := nodes[id]
		if err := async.Register(id, nd.mc.Meter(), func(msg netsim.Message) error {
			outs, evts := nd.mc.Step(msg)
			nd.record(evts)
			return sendAll(async, id, outs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := func(ids []string, f func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
		t.Helper()
		for _, id := range ids {
			outs, evts, err := f(nodes[id].mc)
			if err != nil {
				t.Fatalf("start on %s: %v", id, err)
			}
			nodes[id].record(evts)
			if err := sendAll(async, id, outs); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := async.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	start(ringA, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("s-a", ringA)
	})
	start(ringB, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("s-b", ringB)
	})
	keyA := assertSession(t, nodes, ringA, "s-a")
	start(all, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		base := "s-a"
		for _, id := range ringB {
			if id == mc.ID() {
				base = "s-b"
			}
		}
		return mc.StartMerge("s-m", base, ringA, ringB)
	})
	merged := assertSession(t, nodes, all, "s-m")
	if merged.Cmp(keyA) == 0 {
		t.Fatal("merge did not refresh the group key")
	}
	for _, id := range all {
		if g := nodes[id].established("s-m"); g.Size() != 5 || g.Controller() != "A01" {
			t.Fatalf("%s: bad merged ring %v", id, g.Roster)
		}
	}
}

// TestEngineConfirmShuffled runs the explicit key-confirmation flow under
// randomized delivery.
func TestEngineConfirmShuffled(t *testing.T) {
	ring := []string{"U01", "U02", "U03"}
	nodes := buildNodes(t, ring)
	async := netsim.NewAsync(7)
	for _, id := range ring {
		id := id
		nd := nodes[id]
		if err := async.Register(id, nd.mc.Meter(), func(msg netsim.Message) error {
			outs, evts := nd.mc.Step(msg)
			nd.record(evts)
			return sendAll(async, id, outs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := func(f func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
		t.Helper()
		for _, id := range ring {
			outs, evts, err := f(nodes[id].mc)
			if err != nil {
				t.Fatalf("start on %s: %v", id, err)
			}
			nodes[id].record(evts)
			if err := sendAll(async, id, outs); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := async.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	start(func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("s", ring)
	})
	assertSession(t, nodes, ring, "s")
	start(func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartConfirm("s-confirm", "s")
	})
	for _, id := range ring {
		confirmed := false
		for _, ev := range nodes[id].events {
			if ev.Kind == engine.EventConfirmed {
				confirmed = true
			}
		}
		if !confirmed {
			t.Fatalf("%s did not confirm", id)
		}
	}
}

// sendAll routes engine outbounds through a Medium.
func sendAll(m netsim.Medium, from string, outs []engine.Outbound) error {
	return engine.SendAll(m, from, outs)
}
