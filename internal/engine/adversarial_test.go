package engine_test

import (
	"math/big"
	"strings"
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/wire"
)

// msgOf converts an engine outbound into a delivered message.
func msgOf(from string, o engine.Outbound) netsim.Message {
	return netsim.Message{From: from, To: o.To, Type: o.Type, Payload: o.Payload}
}

// step feeds one message into a node and returns the reaction.
func step(t *testing.T, nd *node, msg netsim.Message) []engine.Outbound {
	t.Helper()
	outs, evts := nd.mc.Step(msg)
	nd.record(evts)
	for _, ev := range evts {
		if ev.Kind == engine.EventFailed {
			t.Fatalf("unexpected failure: %v", ev.Err)
		}
	}
	return outs
}

// TestRound2BeforeRound1 delivers the controller's round-2 traffic before
// its round-1 view is complete: the machine must buffer the early X/s
// values and converge once the late round-1 broadcasts arrive.
func TestRound2BeforeRound1(t *testing.T) {
	ring := []string{"A", "B", "C"} // A is the controller
	nodes := buildNodes(t, ring)
	sid := "s"

	// Start everyone; collect the round-1 broadcasts.
	r1 := map[string]engine.Outbound{}
	for _, id := range ring {
		outs, evts, err := nodes[id].mc.StartInitial(sid, ring)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id].record(evts)
		if len(outs) != 1 || outs[0].Type != engine.MsgRound1 {
			t.Fatalf("%s emitted %d opening messages", id, len(outs))
		}
		r1[id] = outs[0]
	}

	// B and C complete round 1 and emit their round-2 broadcasts.
	var r2B, r2C engine.Outbound
	step(t, nodes["B"], msgOf("A", r1["A"]))
	if outs := step(t, nodes["B"], msgOf("C", r1["C"])); len(outs) == 1 {
		r2B = outs[0]
	} else {
		t.Fatalf("B emitted %d messages after round 1", len(outs))
	}
	step(t, nodes["C"], msgOf("A", r1["A"]))
	if outs := step(t, nodes["C"], msgOf("B", r1["B"])); len(outs) == 1 {
		r2C = outs[0]
	} else {
		t.Fatalf("C emitted %d messages after round 1", len(outs))
	}

	// Adversarial schedule: the controller sees round 2 BEFORE round 1.
	if outs := step(t, nodes["A"], msgOf("B", r2B)); len(outs) != 0 {
		t.Fatalf("controller acted on early round-2 traffic: %d messages", len(outs))
	}
	if outs := step(t, nodes["A"], msgOf("C", r2C)); len(outs) != 0 {
		t.Fatalf("controller acted on early round-2 traffic: %d messages", len(outs))
	}
	step(t, nodes["A"], msgOf("B", r1["B"]))
	outs := step(t, nodes["A"], msgOf("C", r1["C"]))
	if len(outs) != 1 || outs[0].Type != engine.MsgRound2 {
		t.Fatalf("controller did not emit round 2 once round 1 completed (got %d messages)", len(outs))
	}
	if nodes["A"].established(sid) == nil {
		t.Fatal("controller did not finish")
	}

	// The stragglers finish once they hold the full round-2 view (their
	// peers' broadcasts and the controller's).
	step(t, nodes["B"], msgOf("C", r2C))
	step(t, nodes["C"], msgOf("B", r2B))
	step(t, nodes["B"], msgOf("A", outs[0]))
	step(t, nodes["C"], msgOf("A", outs[0]))
	assertSession(t, nodes, ring, sid)
}

// TestDuplicateBroadcasts delivers every message twice: machines must
// suppress the duplicates, converge to one key, and charge each metered
// operation exactly once.
func TestDuplicateBroadcasts(t *testing.T) {
	ring := []string{"U01", "U02", "U03", "U04"}
	nodes := buildNodes(t, ring)
	// Double every delivery by re-sending each outbound twice.
	queue := []busDelivery{}
	enqueue := func(from string, outs []engine.Outbound) {
		for _, o := range outs {
			for rep := 0; rep < 2; rep++ {
				for _, id := range ring {
					if id != from {
						queue = append(queue, busDelivery{to: id, msg: msgOf(from, o)})
					}
				}
			}
		}
	}
	for _, id := range ring {
		outs, evts, err := nodes[id].mc.StartInitial("s", ring)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id].record(evts)
		enqueue(id, outs)
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		nd := nodes[d.to]
		outs, evts := nd.mc.Step(d.msg)
		nd.record(evts)
		enqueue(d.to, outs)
	}
	assertSession(t, nodes, ring, "s")
	// Exactly the paper's per-user operation counts despite double
	// delivery: 3 exponentiations, 1 signature generation, 1 batch
	// verification.
	for _, id := range ring {
		r := nodes[id].mc.Meter().Report()
		if r.Exp != 3 || r.TotalSignGen() != 1 || r.TotalSignVer() != 1 {
			t.Fatalf("%s double-charged under duplicates: Exp=%d gen=%d ver=%d",
				id, r.Exp, r.TotalSignGen(), r.TotalSignVer())
		}
	}
}

// TestInterleavedSessions runs two concurrent establishments over the same
// machines (different session ids, different ring orders) with all
// traffic shuffled into one seeded lottery: both sessions must converge
// independently.
func TestInterleavedSessions(t *testing.T) {
	ring := []string{"U01", "U02", "U03", "U04"}
	reversed := []string{"U04", "U03", "U02", "U01"}
	nodes := buildNodes(t, ring)
	async := netsim.NewAsync(99)
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
	// Start BOTH sessions on every machine before any delivery happens,
	// then let the scheduler interleave them arbitrarily.
	for _, id := range ring {
		outs, evts, err := nodes[id].mc.StartInitial("red", ring)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id].record(evts)
		if err := sendAll(async, id, outs); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ring {
		outs, evts, err := nodes[id].mc.StartInitial("blue", reversed)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id].record(evts)
		if err := sendAll(async, id, outs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := async.Run(0); err != nil {
		t.Fatal(err)
	}
	red := assertSession(t, nodes, ring, "red")
	blue := assertSession(t, nodes, ring, "blue")
	if red.Cmp(blue) == 0 {
		t.Fatal("independent sessions derived the same key")
	}
	// Machine-level session lookup agrees with the events.
	for _, id := range ring {
		if g := nodes[id].mc.Session("red"); g == nil || g.Key.BigVarTime().Cmp(red) != 0 {
			t.Fatalf("%s: Session(red) lookup mismatch", id)
		}
		if g := nodes[id].mc.Session("blue"); g == nil || g.Key.BigVarTime().Cmp(blue) != 0 {
			t.Fatalf("%s: Session(blue) lookup mismatch", id)
		}
	}
}

// TestEarlyTrafficBuffered delivers round-1 traffic to a machine BEFORE
// it starts the flow: everything must buffer, replay on StartInitial, and
// the whole group still converges.
func TestEarlyTrafficBuffered(t *testing.T) {
	ring := []string{"B", "C", "A"} // B is the controller; A starts late
	nodes := buildNodes(t, ring)
	sid := "s"

	// B and C start and exchange their round-1 broadcasts; neither can
	// reach round 2 without A's.
	outsB, _, err := nodes["B"].mc.StartInitial(sid, ring)
	if err != nil {
		t.Fatal(err)
	}
	outsC, _, err := nodes["C"].mc.StartInitial(sid, ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(outsB) != 1 || len(outsC) != 1 {
		t.Fatalf("unexpected opening traffic: %d/%d", len(outsB), len(outsC))
	}
	if outs := step(t, nodes["B"], msgOf("C", outsC[0])); len(outs) != 0 {
		t.Fatal("B advanced without A's round-1 broadcast")
	}
	if outs := step(t, nodes["C"], msgOf("B", outsB[0])); len(outs) != 0 {
		t.Fatal("C advanced without A's round-1 broadcast")
	}

	// A receives both broadcasts before starting: everything buffers.
	if outs, _ := nodes["A"].mc.Step(msgOf("B", outsB[0])); len(outs) != 0 {
		t.Fatal("machine reacted before the flow started")
	}
	if outs, _ := nodes["A"].mc.Step(msgOf("C", outsC[0])); len(outs) != 0 {
		t.Fatal("machine reacted before the flow started")
	}

	// On start the buffered traffic replays: A's round-1 view is complete
	// immediately, so it emits round 1 AND round 2 in one go; the bus
	// routes the remaining handshake to quiescence.
	b := newBus(t, nodes, ring)
	b.start("A", func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial(sid, ring)
	})
	b.pump()
	assertSession(t, nodes, ring, sid)
}

// TestAbortRestartFreshAttempt: after Abort, restarting the same session
// id must use a fresh attempt number, so in-flight traffic of the aborted
// attempt is dropped instead of poisoning the new run's duplicate
// suppression.
func TestAbortRestartFreshAttempt(t *testing.T) {
	ring := []string{"A", "B", "C"}
	nodes := buildNodes(t, ring)
	sid := "s"

	// Attempt 0: start everyone and capture A's round-1 broadcast as the
	// straggler that will arrive late.
	var staleFromA engine.Outbound
	for _, id := range ring {
		outs, _, err := nodes[id].mc.StartInitial(sid, ring)
		if err != nil {
			t.Fatal(err)
		}
		if id == "A" {
			staleFromA = outs[0]
		}
	}
	// The attempt is abandoned (e.g. a lost message elsewhere).
	for _, id := range ring {
		nodes[id].mc.Abort(sid)
	}

	// Attempt 1: fresh start; the straggler from attempt 0 arrives first
	// at B and must be ignored.
	b := newBus(t, nodes, ring)
	if outs, _ := nodes["B"].mc.Step(msgOf("A", staleFromA)); len(outs) != 0 {
		t.Fatal("stale-attempt traffic provoked a reaction")
	}
	for _, id := range ring {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial(sid, ring)
		})
	}
	b.pump()
	assertSession(t, nodes, ring, sid)
}

// TestHostileRound1Retryable delivers one crafted frame ahead of the
// honest one, on both ring constructors: in round 1 a z or t out of
// range, or a z from a member that does not refresh; in round 2 an X
// outside (0, p) or an s outside (0, N). The victim must end the attempt
// in one retryable failure naming the bad value, and emit no round-2
// message for it.
//
// The partition rows re-key A, B, C out of the committed ring A, B, C, D:
// A and C refresh (odd positions), B is silent unless strict-nonce mode
// makes it a sender. The initial rows establish A, B, C.
func TestHostileRound1Retryable(t *testing.T) {
	set := params.Default()
	p, n, two := set.Schnorr.P, set.RSA.N, big.NewInt(2)
	cases := []struct {
		name          string
		partition     bool
		strict        bool
		from, victim  string
		z, commitment *big.Int // X and s for a round-2 row
		round2        bool
	}{
		{"leave z=p from predecessor", true, false, "A", "B", p, two, false},
		{"leave z=0 from refresher", true, false, "A", "B", nil, two, false},
		{"leave t=0", true, false, "C", "B", two, nil, false},
		{"leave t=N", true, false, "C", "B", two, n, false},
		{"leave z from strict non-refresher", true, true, "B", "C", two, two, false},
		{"initial z=p", false, false, "A", "B", p, two, false},
		{"initial z=0", false, false, "A", "B", nil, two, false},
		{"initial t=0", false, false, "C", "B", two, nil, false},
		{"initial t=N", false, false, "C", "B", two, n, false},
		{"initial X=p", false, false, "A", "B", p, two, true},
		{"initial X=0", false, false, "A", "B", nil, two, true},
		{"initial s=N", false, false, "C", "B", two, n, true},
		{"initial s=0", false, false, "C", "B", two, nil, true},
		{"leave X=p", true, false, "A", "B", p, two, true},
		{"leave s=N", true, false, "C", "B", two, n, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := []string{"A", "B", "C"}
			if tc.partition {
				ring = append(ring, "D")
			}
			nodes := nodesWith(t, ring, engine.Config{Set: set.Public(), StrictNonceRefresh: tc.strict})
			roster, r1, r2 := ring, engine.MsgRound1, engine.MsgRound2
			start := func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartInitial("h", roster)
			}
			if tc.partition {
				b := newBus(t, nodes, ring)
				for _, id := range ring {
					b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
						return mc.StartInitial("base", ring)
					})
				}
				b.pump()
				assertSession(t, nodes, ring, "base")
				survivors, refresh, err := engine.PlanLeave(nodes["A"].mc.Session("base"), []string{"D"})
				if err != nil {
					t.Fatal(err)
				}
				roster, r1, r2 = survivors, engine.MsgLeave1, engine.MsgLeave2
				start = func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
					return mc.StartPartition("h", "base", survivors, refresh)
				}
			}

			// Start every member; the victim sees the crafted frame
			// first, then every honest round-1 broadcast.
			body := wire.NewBuffer().PutString(tc.from).PutBig(tc.z).PutBig(tc.commitment).Bytes()
			typ := r1
			if tc.round2 {
				typ = r2
			}
			inbox := []netsim.Message{{From: tc.from, Type: typ, Payload: engine.Envelope("h", 0, body)}}
			var outs []engine.Outbound
			var evts []engine.Event
			for _, id := range roster {
				o, e, err := start(nodes[id].mc)
				if err != nil {
					t.Fatal(err)
				}
				if id == tc.victim {
					outs, evts = o, e
					continue
				}
				for _, x := range o {
					inbox = append(inbox, msgOf(id, x))
				}
			}
			for _, msg := range inbox {
				o, e := nodes[tc.victim].mc.Step(msg)
				outs, evts = append(outs, o...), append(evts, e...)
			}

			var fails []engine.Event
			for _, ev := range evts {
				if ev.Kind == engine.EventFailed {
					fails = append(fails, ev)
				}
			}
			if len(fails) != 1 {
				t.Fatalf("victim reported %d failures, want 1: %v", len(fails), fails)
			}
			if err := fails[0].Err; !fails[0].Retryable ||
				!strings.Contains(err.Error(), "out of range") && !strings.Contains(err.Error(), "unexpected") {
				t.Fatalf("failure %v (retryable %v), want a retryable out-of-range or unexpected cause", err, fails[0].Retryable)
			}
			for _, o := range outs {
				if o.Type == r2 {
					t.Fatalf("victim emitted %s after a hostile round 1", r2)
				}
			}
		})
	}
}
