package core

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"idgka/internal/bdkey"
	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/params"
)

// TestConsecutiveJoins checks state consistency across repeated joins:
// each joiner becomes the new U_n and must be able to serve the next join.
func TestConsecutiveJoins(t *testing.T) {
	net, members := buildGroup(t, 3, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	group := members
	for i := 0; i < 3; i++ {
		joiner := newMachine(t, net, fmt.Sprintf("J%02d", i+1), nil)
		if err := RunJoin(net, group, joiner); err != nil {
			t.Fatalf("join %d: %v", i+1, err)
		}
		group = append(group, joiner)
		assertAgreement(t, group)
	}
	if group[0].Group().Size() != 6 {
		t.Fatalf("final ring size %d, want 6", group[0].Group().Size())
	}
}

// TestJoinThenLeaveJoiner: the joiner (no stored commitment) must survive a
// later Leave regardless of its ring parity.
func TestJoinThenLeaveJoiner(t *testing.T) {
	for _, initial := range []int{3, 4} { // joiner lands at even/odd 1-based position
		net, members := buildGroup(t, initial, nil)
		if err := RunInitial(net, members); err != nil {
			t.Fatal(err)
		}
		joiner := newMachine(t, net, "JX", nil)
		if err := RunJoin(net, members, joiner); err != nil {
			t.Fatal(err)
		}
		group := append(append([]*engine.Machine{}, members...), joiner)
		// Someone else leaves; the joiner must participate correctly.
		if err := RunLeave(net, group, members[1].ID()); err != nil {
			t.Fatalf("initial=%d: leave after join: %v", initial, err)
		}
		var remain []*engine.Machine
		for _, mb := range group {
			if mb.ID() != members[1].ID() {
				remain = append(remain, mb)
			}
		}
		assertAgreement(t, remain)

		// And then the joiner itself leaves.
		if err := RunLeave(net, remain, "JX"); err != nil {
			t.Fatalf("initial=%d: joiner leaving: %v", initial, err)
		}
		var rest []*engine.Machine
		for _, mb := range remain {
			if mb.ID() != "JX" {
				rest = append(rest, mb)
			}
		}
		assertAgreement(t, rest)
	}
}

// TestMergeThenLeaveAcrossBoundary: after a merge, members of the former
// group B must be able to leave and the survivors (mixed A/B) agree.
func TestMergeThenLeaveAcrossBoundary(t *testing.T) {
	net, groupA := buildGroup(t, 4, nil)
	if err := RunInitial(net, groupA); err != nil {
		t.Fatal(err)
	}
	netB := netsim.New()
	var groupB []*engine.Machine
	for i := 0; i < 3; i++ {
		groupB = append(groupB, newMachine(t, netB, fmt.Sprintf("W%02d", i+1), nil))
	}
	if err := RunInitial(netB, groupB); err != nil {
		t.Fatal(err)
	}
	for _, mb := range groupB {
		if err := net.Register(mb.ID(), mb.Meter()); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunMerge(net, groupA, groupB); err != nil {
		t.Fatal(err)
	}
	merged := append(append([]*engine.Machine{}, groupA...), groupB...)
	assertAgreement(t, merged)

	// A former-B member leaves the merged ring.
	if err := RunLeave(net, merged, "W02"); err != nil {
		t.Fatalf("leave across merge boundary: %v", err)
	}
	var remain []*engine.Machine
	for _, mb := range merged {
		if mb.ID() != "W02" {
			remain = append(remain, mb)
		}
	}
	assertAgreement(t, remain)

	// Then the former-A controller leaves: ring re-anchors on a new
	// controller.
	if err := RunLeave(net, remain, groupA[0].ID()); err != nil {
		t.Fatalf("controller leaving: %v", err)
	}
	var rest []*engine.Machine
	for _, mb := range remain {
		if mb.ID() != groupA[0].ID() {
			rest = append(rest, mb)
		}
	}
	assertAgreement(t, rest)
}

// TestLeaveRecoversFromCorruption exercises the retransmission loop in the
// Leave protocol.
func TestLeaveRecoversFromCorruption(t *testing.T) {
	net, members := buildGroup(t, 5, func(c *engine.Config) { c.MaxRetries = 3 })
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	net.SetFaults(netsim.FaultPlan{CorruptFirst: engine.MsgLeave2})
	if err := RunLeave(net, members, members[2].ID()); err != nil {
		t.Fatalf("leave with corruption: %v", err)
	}
	remain := append(append([]*engine.Machine{}, members[:2]...), members[3:]...)
	assertAgreement(t, remain)
}

// TestSessionAccessors covers the Session helper methods.
func TestSessionAccessors(t *testing.T) {
	net, members := buildGroup(t, 4, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	s := members[0].Group()
	if s.Roster[0] != members[0].ID() || s.Last() != members[3].ID() {
		t.Fatal("controller/last wrong")
	}
	if s.Position(members[2].ID()) != 2 || s.Position("nobody") != -1 {
		t.Fatal("Position wrong")
	}
}

// TestGroupKeyMatchesDirectComputation white-boxes equation (3): the
// protocol key equals g^{Σ r_i r_{i+1}} computed from the members' secret
// exponents.
func TestGroupKeyMatchesDirectComputation(t *testing.T) {
	net, members := buildGroup(t, 5, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	sg := params.Default().Schnorr
	rs := make([]*big.Int, len(members))
	for i, mb := range members {
		rs[i] = mb.Group().R.BigVarTime()
	}
	want := bdkey.DirectKey(sg.G, rs, sg.Q, sg.P)
	if members[0].Key().Cmp(want) != 0 {
		t.Fatal("protocol key does not match equation (3)")
	}
}

// TestKeyUnpredictability (property): distinct runs produce distinct keys.
func TestKeyUnpredictability(t *testing.T) {
	seen := map[string]bool{}
	f := func(seed uint8) bool {
		_ = seed
		net, members := buildGroup(t, 2, nil)
		if err := RunInitial(net, members); err != nil {
			return false
		}
		k := members[0].Key().String()
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRejectsUnkeyedGroups covers merge validation.
func TestMergeRejectsUnkeyedGroups(t *testing.T) {
	net, a := buildGroup(t, 2, nil)
	_, b := buildGroup(t, 2, nil)
	if err := RunMerge(net, a, b); err == nil {
		t.Fatal("merge of unkeyed groups accepted")
	}
	if err := RunMerge(net, a[:1], b); err == nil {
		t.Fatal("merge with singleton accepted")
	}
}
