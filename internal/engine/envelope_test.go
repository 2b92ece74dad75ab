package engine_test

import (
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/wire"
)

// TestOutboundSIDAndEnvelopePeek: a flow cannot start without a session
// id, and every outbound a flow emits — from its Start call or from Step —
// carries the flow's session id both in its SID field and in its payload
// envelope, across the initial, join, partition, merge and confirm flows.
// EnvelopeSID recovers the id without consuming the payload.
func TestOutboundSIDAndEnvelopePeek(t *testing.T) {
	ringA := []string{"A01", "A02", "A03"}
	ringB := []string{"B01", "B02", "B03"}
	all := append(append(append([]string(nil), ringA...), ringB...), "J01")
	nodes := buildNodes(t, all)
	if _, _, err := nodes["A01"].mc.StartInitial("", ringA); err == nil {
		t.Fatal("StartInitial accepted an empty session id")
	}

	checkOuts := func(sid string, outs []engine.Outbound) {
		t.Helper()
		for _, o := range outs {
			if o.SID != sid {
				t.Fatalf("%s outbound: SID = %q, want %q", o.Type, o.SID, sid)
			}
			if got := engine.EnvelopeSID(o.Payload); got != sid {
				t.Fatalf("%s outbound: EnvelopeSID = %q, want %q", o.Type, got, sid)
			}
		}
	}
	b := newBus(t, nodes, all)
	b.onStep = func(msg netsim.Message, outs []engine.Outbound) {
		checkOuts(engine.EnvelopeSID(msg.Payload), outs)
	}
	run := func(sid string, ids []string, begin func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
		t.Helper()
		for _, id := range ids {
			outs, evts, err := begin(nodes[id].mc)
			if err != nil {
				t.Fatalf("start %s on %s: %v", sid, id, err)
			}
			checkOuts(sid, outs)
			nodes[id].record(evts)
			b.send(id, outs)
		}
		b.pump()
	}

	run("g-a", ringA, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("g-a", ringA)
	})
	run("g-b", ringB, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("g-b", ringB)
	})
	assertSession(t, nodes, ringA, "g-a")
	assertSession(t, nodes, ringB, "g-b")

	joined := append(append([]string(nil), ringA...), "J01")
	run("f-join", joined, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartJoin("f-join", "g-a", ringA, "J01")
	})
	assertSession(t, nodes, joined, "f-join")

	survivors, refresh, err := engine.PlanPartition(ringB, []string{"B02"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run("f-leave", survivors, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartPartition("f-leave", "g-b", survivors, refresh)
	})
	assertSession(t, nodes, survivors, "f-leave")

	merged := append(append([]string(nil), joined...), survivors...)
	run("f-merge", merged, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		base := "f-join"
		if mc.Session("f-leave") != nil {
			base = "f-leave"
		}
		return mc.StartMerge("f-merge", base, joined, survivors)
	})
	assertSession(t, nodes, merged, "f-merge")

	run("f-confirm", merged, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartConfirm("f-confirm", "f-merge")
	})
	for _, id := range merged {
		confirmed := false
		for _, ev := range nodes[id].events {
			confirmed = confirmed || (ev.Kind == engine.EventConfirmed && ev.SID == "f-confirm")
		}
		if !confirmed {
			t.Fatalf("%s did not confirm f-merge", id)
		}
	}

	if got := engine.EnvelopeSID([]byte{0xff}); got != "" {
		t.Fatalf("EnvelopeSID on garbage = %q, want empty", got)
	}
}

// TestBufferedAndAbort: early traffic for an unstarted session is
// reported by Buffered and dropped by Abort.
func TestBufferedAndAbort(t *testing.T) {
	roster := []string{"buf-01", "buf-02"}
	nodes := buildNodes(t, roster)
	mc := nodes["buf-01"].mc
	env := wire.NewBuffer().PutString("later").PutUint(0).Bytes()
	mc.Step(netsim.Message{From: "buf-02", Type: engine.MsgRound1, Payload: append(env, 0x01)})
	if got := mc.Buffered("later"); got != 1 {
		t.Fatalf("Buffered = %d, want 1", got)
	}
	if mc.ActiveFlow("later") {
		t.Fatal("unstarted session reported as an active flow")
	}
	mc.Abort("later")
	if got := mc.Buffered("later"); got != 0 {
		t.Fatalf("Buffered after Abort = %d, want 0", got)
	}
}
