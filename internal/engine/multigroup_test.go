package engine_test

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// TestTwoGroupsOneMachineConcurrentDynamics is the aliasing regression:
// one machine (S01) serves two independent groups, and a Join on group A
// runs concurrently with a Leave on group B under the async scheduler's
// shuffled delivery. Before the per-session group registry, S01 based
// both flows on its most recently committed group, silently keying the
// Join off group B's state; now each flow names its base session and the
// keys must never cross-contaminate.
func TestTwoGroupsOneMachineConcurrentDynamics(t *testing.T) {
	ringA := []string{"A01", "A02", "S01"} // S01 is U_n: the Join bridge role
	ringB := []string{"B01", "B02", "S01", "B03"}
	all := []string{"A01", "A02", "S01", "B01", "B02", "B03", "J01"}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nodes := buildNodes(t, all)
			async := netsim.NewAsync(seed)
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
			}
			run := func() {
				t.Helper()
				if _, err := async.Run(0); err != nil {
					t.Fatal(err)
				}
			}

			// Group A keys first, group B second: S01's "most recently
			// committed" group is B — the wrong base for the Join on A.
			begin(ringA, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartInitial("g-a", ringA)
			})
			run()
			keyA := assertSession(t, nodes, ringA, "g-a")
			begin(ringB, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartInitial("g-b", ringB)
			})
			run()
			keyB := assertSession(t, nodes, ringB, "g-b")
			if keyA.Cmp(keyB) == 0 {
				t.Fatal("independent groups derived the same key")
			}

			// Concurrently: J01 joins group A while B02 leaves group B.
			// All flows start before any delivery, then one lottery
			// interleaves every message of both re-keyings.
			joinParts := append(append([]string(nil), ringA...), "J01")
			newRosterB, refreshB, err := engine.PlanPartition(ringB, []string{"B02"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			begin(joinParts, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartJoin("f-join", "g-a", ringA, "J01")
			})
			begin(newRosterB, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartPartition("f-leave", "g-b", newRosterB, refreshB)
			})
			run()

			newKeyA := assertSession(t, nodes, joinParts, "f-join")
			newKeyB := assertSession(t, nodes, newRosterB, "f-leave")
			if newKeyA.Cmp(newKeyB) == 0 {
				t.Fatal("concurrent dynamic flows cross-contaminated: same key")
			}
			if newKeyA.Cmp(keyA) == 0 || newKeyA.Cmp(keyB) == 0 {
				t.Fatal("join did not derive a fresh key")
			}
			if newKeyB.Cmp(keyA) == 0 || newKeyB.Cmp(keyB) == 0 {
				t.Fatal("leave did not derive a fresh key")
			}

			// The shared machine's registry holds all four groups, each
			// under its own sid, with the right rosters.
			s := nodes["S01"].mc
			if g := s.Session("f-join"); g == nil || g.Key.BigVarTime().Cmp(newKeyA) != 0 || g.Size() != 4 || g.Last() != "J01" {
				t.Fatalf("S01: bad f-join registry entry %+v", g)
			}
			if g := s.Session("f-leave"); g == nil || g.Key.BigVarTime().Cmp(newKeyB) != 0 || g.Position("B02") != -1 {
				t.Fatalf("S01: bad f-leave registry entry %+v", g)
			}
			if g := s.Session("g-a"); g == nil || g.Key.BigVarTime().Cmp(keyA) != 0 {
				t.Fatal("S01: base session g-a lost")
			}
			if g := s.Session("g-b"); g == nil || g.Key.BigVarTime().Cmp(keyB) != 0 {
				t.Fatal("S01: base session g-b lost")
			}
		})
	}
}

// TestDynamicFlowRequiresMatchingBase: naming a base session whose ring
// does not match the flow's roster is rejected at Start instead of
// silently keying off the wrong group.
func TestDynamicFlowRequiresMatchingBase(t *testing.T) {
	ringA := []string{"A01", "A02", "S01"}
	ringB := []string{"B01", "S01", "B02"}
	all := append(append([]string(nil), ringA...), "B01", "B02")
	nodes := buildNodes(t, all)
	b := newBus(t, nodes, all)
	for _, id := range ringA {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("g-a", ringA)
		})
	}
	b.pump()
	for _, id := range ringB {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("g-b", ringB)
		})
	}
	b.pump()

	s := nodes["S01"].mc
	// Join on ring A naming group B as base: ring mismatch.
	if _, _, err := s.StartJoin("x1", "g-b", ringA, "J01"); err == nil {
		t.Fatal("join with mismatched base accepted")
	}
	// Partition of a ring-A member naming group B as base.
	if _, _, err := s.StartPartition("x2", "g-b", []string{"A01", "S01"}, []string{"A01"}); err == nil {
		t.Fatal("partition with survivors outside the base ring accepted")
	}
	// Unknown base session.
	if _, _, err := s.StartConfirm("x3", "nope"); err == nil {
		t.Fatal("confirm with unknown base accepted")
	}
	// Merge naming the wrong side's session as base.
	if _, _, err := s.StartMerge("x4", "g-b", ringA, []string{"C01", "C02"}); err == nil {
		t.Fatal("merge with mismatched base accepted")
	}
	// The rejections above must not have leaked flows: the correct base
	// still works.
	if _, _, err := s.StartConfirm("x5", "g-a"); err != nil {
		t.Fatalf("confirm with valid base rejected: %v", err)
	}
}

// TestConfirmIgnoresSelfDigest: a loopback or echoing medium reflecting a
// member's own confirmation digest back must not count toward the peer
// roster, or confirmation would complete one real peer short.
func TestConfirmIgnoresSelfDigest(t *testing.T) {
	ring := []string{"A", "B", "C"}
	nodes := buildNodes(t, ring)
	b := newBus(t, nodes, ring)
	for _, id := range ring {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("s", ring)
		})
	}
	b.pump()
	assertSession(t, nodes, ring, "s")

	outsA, _, err := nodes["A"].mc.StartConfirm("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(outsA) != 1 {
		t.Fatalf("A emitted %d confirm messages", len(outsA))
	}
	outsB, _, err := nodes["B"].mc.StartConfirm("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	outsC, _, err := nodes["C"].mc.StartConfirm("c", "s")
	if err != nil {
		t.Fatal(err)
	}

	confirmed := func() bool {
		for _, ev := range nodes["A"].events {
			if ev.Kind == engine.EventConfirmed {
				return true
			}
		}
		return false
	}
	// Echo A's own digest back, then deliver B's: only ONE real peer has
	// confirmed, so A must not be done yet.
	nodes["A"].record(step2(t, nodes["A"], msgOf("A", outsA[0])))
	nodes["A"].record(step2(t, nodes["A"], msgOf("B", outsB[0])))
	if confirmed() {
		t.Fatal("self digest counted toward confirmation")
	}
	nodes["A"].record(step2(t, nodes["A"], msgOf("C", outsC[0])))
	if !confirmed() {
		t.Fatal("A did not confirm after both real peers' digests")
	}
}

// step2 steps a machine and returns the events, failing the test on a
// failure event.
func step2(t *testing.T, nd *node, msg netsim.Message) []engine.Event {
	t.Helper()
	_, evts := nd.mc.Step(msg)
	for _, ev := range evts {
		if ev.Kind == engine.EventFailed {
			t.Fatalf("unexpected failure: %v", ev.Err)
		}
	}
	return evts
}

// TestJoinMergeFailuresAreRetryable: parse and verification failures in
// the Join and Merge flows must carry the engine's retryable marker, the
// trigger of the paper's "all members retransmit again" loop, exactly as
// the initial and leave flows already do. Each row steps one crafted
// message into a victim's fresh flow: a truncated payload, a z outside
// (0, p) under a valid signature, or a leading identity that is not the
// sender's. A signed out-of-range z would otherwise be folded into K*
// (z = 0 commits the group key 0) or used as a DH base.
func TestJoinMergeFailuresAreRetryable(t *testing.T) {
	set := params.Default()
	p, zero, two := set.Schnorr.P, new(big.Int), big.NewInt(2)
	ringA := []string{"A01", "A02", "A03"}
	ringB := []string{"B01", "B02"}
	all := append(append([]string(nil), ringA...), ringB...)
	nodes := buildNodes(t, append(all, "J01"))
	b := newBus(t, nodes, all)
	for _, id := range ringA {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("g-a", ringA)
		})
	}
	b.pump()
	for _, id := range ringB {
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("g-b", ringB)
		})
	}
	b.pump()

	// signed returns the fields in w followed by signer's valid GQ
	// signature over them.
	signed := func(signer string, w *wire.Buffer) []byte {
		sk, err := gq.Extract(set.RSA, signer)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := sk.Sign(rand.Reader, w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return w.PutBig(sig.S).PutBig(sig.C).Bytes()
	}
	join := func(mc *engine.Machine, sid string) error {
		_, _, err := mc.StartJoin(sid, "g-a", ringA, "J01")
		return err
	}
	joiner := func(mc *engine.Machine, sid string) error {
		_, _, err := mc.StartJoin(sid, "", ringA, "J01")
		return err
	}
	merge := func(mc *engine.Machine, sid string) error {
		_, _, err := mc.StartMerge(sid, "g-a", ringA, ringB)
		return err
	}
	// forged runs a live Join of J01 into ring A under sid, withholding
	// U_n's m'''_n from the joiner, and returns that message's body with
	// A02's z in the forwarded state tables rewritten to 2, an in-range
	// value no member holds. The joiner is left waiting for m'''_n.
	forged := func(mc *engine.Machine, sid string) ([]byte, error) {
		lb := newBus(t, nodes, append(append([]string(nil), ringA...), "J01"))
		for _, id := range ringA {
			lb.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
				return mc.StartJoin(sid, "g-a", ringA, "J01")
			})
		}
		lb.start("J01", func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartJoin(sid, "", ringA, "J01")
		})
		var fwd []byte
		for len(lb.queue) > 0 {
			d := lb.queue[0]
			lb.queue = lb.queue[1:]
			if d.msg.Type == engine.MsgJoinFwd {
				fwd = d.msg.Payload
				continue
			}
			outs, evts := lb.nodes[d.to].mc.Step(d.msg)
			lb.nodes[d.to].record(evts)
			lb.send(d.to, outs)
		}
		_, _, body, err := engine.OpenEnvelope(fwd)
		if err != nil {
			return nil, err
		}
		r := wire.NewReader(body)
		out := wire.NewBuffer().PutString(r.String()).PutBytes(r.Bytes())
		count := r.Uint()
		out.PutUint(count)
		for i := uint64(0); i < count; i++ {
			id, z, tv := r.String(), r.Big(), r.Big()
			if id == "A02" {
				z = two
			}
			out.PutString(id).PutBig(z).PutBig(tv)
		}
		return out.Bytes(), r.Close()
	}
	junk := []byte("not a wrapped key")
	cases := []struct {
		name, victim string
		start        func(mc *engine.Machine, sid string) error
		from, typ    string
		body         []byte
		cause        string
		// live, when set, runs the flow itself in place of start and
		// returns the body of the message under test.
		live func(mc *engine.Machine, sid string) ([]byte, error)
	}{
		{"join round1 truncated", "A01", join, "J01", engine.MsgJoin1,
			wire.NewBuffer().PutString("J01").Bytes(), "truncated", nil},
		{"merge advert truncated", "A01", merge, "B01", engine.MsgMerge1,
			wire.NewBuffer().PutString("B01").Bytes(), "truncated", nil},
		{"join z_{n+1}=0 at U_1", "A01", join, "J01", engine.MsgJoin1,
			signed("J01", wire.NewBuffer().PutString("J01").PutBig(zero)), "out of range", nil},
		{"join z_{n+1}=p at U_n", "A03", join, "J01", engine.MsgJoin1,
			signed("J01", wire.NewBuffer().PutString("J01").PutBig(p)), "out of range", nil},
		{"join z_n=0 at the joiner", "J01", joiner, "A03", engine.MsgJoinLast,
			append(wire.NewBuffer().PutString("A03").Bytes(), signed("A03", wire.NewBuffer().PutBytes(junk).PutBig(zero))...), "out of range", nil},
		{"merge advert z~=0", "A01", merge, "B01", engine.MsgMerge1,
			signed("B01", wire.NewBuffer().PutString("B01").PutBig(zero).PutBig(two)), "out of range", nil},
		{"merge advert z_last=p", "A01", merge, "B01", engine.MsgMerge1,
			signed("B01", wire.NewBuffer().PutString("B01").PutBig(two).PutBig(p)), "out of range", nil},
		{"join m'_1 names another sender", "A02", join, "A01", engine.MsgJoinCtl,
			wire.NewBuffer().PutString("A03").PutBytes(junk).Bytes(), "identity mismatch", nil},
		{"merge round2 names another sender", "A02", merge, "A01", engine.MsgMerge2,
			wire.NewBuffer().PutString("A02").PutBytes(junk).PutBytes(junk).Bytes(), "identity mismatch", nil},
		// Last: the live Join commits the new ring at A01-A03.
		{"join forwarded tables rewritten", "J01", nil, "A03", engine.MsgJoinFwd,
			nil, "unwrap", forged},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sid := fmt.Sprintf("row-%d", i)
			mc := nodes[tc.victim].mc
			body := tc.body
			var err error
			if tc.live != nil {
				body, err = tc.live(mc, sid)
			} else {
				err = tc.start(mc, sid)
			}
			if err != nil {
				t.Fatal(err)
			}
			_, evts := mc.Step(netsim.Message{From: tc.from, Type: tc.typ, Payload: engine.Envelope(sid, 0, body)})
			err = assertRetryableFailure(t, tc.name, evts)
			if !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("failure %v, want cause %q", err, tc.cause)
			}
		})
	}
}

// assertRetryableFailure returns the retryable failure among evts.
func assertRetryableFailure(t *testing.T, what string, evts []engine.Event) error {
	t.Helper()
	for _, ev := range evts {
		if ev.Kind == engine.EventFailed {
			if !ev.Retryable {
				t.Fatalf("%s: failure not retryable: %v", what, ev.Err)
			}
			if !engine.IsRetryable(ev.Err) {
				t.Fatalf("%s: error lost the retryable marker: %v", what, ev.Err)
			}
			return ev.Err
		}
	}
	t.Fatalf("%s: malformed message did not fail the flow", what)
	return nil
}
