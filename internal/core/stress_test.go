package core

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"idgka/internal/bdkey"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// TestConsecutiveJoins checks state consistency across repeated joins:
// each joiner becomes the new U_n and must be able to serve the next join.
func TestConsecutiveJoins(t *testing.T) {
	net, members := buildGroup(t, 3, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	set := params.Default()
	group := members
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("J%02d", i+1)
		sk, _ := gq.Extract(set.RSA, id)
		m := meter.New()
		joiner, _ := NewMember(Config{Set: set.Public()}, sk, m)
		if err := net.Register(id, m); err != nil {
			t.Fatal(err)
		}
		if err := RunJoin(net, group, joiner); err != nil {
			t.Fatalf("join %d: %v", i+1, err)
		}
		group = append(group, joiner)
		assertAgreement(t, group)
	}
	if group[0].Session().Size() != 6 {
		t.Fatalf("final ring size %d, want 6", group[0].Session().Size())
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
		set := params.Default()
		sk, _ := gq.Extract(set.RSA, "JX")
		m := meter.New()
		joiner, _ := NewMember(Config{Set: set.Public()}, sk, m)
		if err := net.Register("JX", m); err != nil {
			t.Fatal(err)
		}
		if err := RunJoin(net, members, joiner); err != nil {
			t.Fatal(err)
		}
		group := append(append([]*Member{}, members...), joiner)
		// Someone else leaves; the joiner must participate correctly.
		if err := RunLeave(net, group, members[1].ID()); err != nil {
			t.Fatalf("initial=%d: leave after join: %v", initial, err)
		}
		var remain []*Member
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
		var rest []*Member
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
	set := params.Default()
	netB := netsim.New()
	var groupB []*Member
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("W%02d", i+1)
		sk, _ := gq.Extract(set.RSA, id)
		m := meter.New()
		mb, _ := NewMember(Config{Set: set.Public()}, sk, m)
		_ = netB.Register(id, m)
		groupB = append(groupB, mb)
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
	merged := append(append([]*Member{}, groupA...), groupB...)
	assertAgreement(t, merged)

	// A former-B member leaves the merged ring.
	if err := RunLeave(net, merged, "W02"); err != nil {
		t.Fatalf("leave across merge boundary: %v", err)
	}
	var remain []*Member
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
	var rest []*Member
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
	net, members := buildGroup(t, 5, func(c *Config) { c.MaxRetries = 3 })
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	net.SetFaults(netsim.FaultPlan{CorruptFirst: engine.MsgLeave2})
	if err := RunLeave(net, members, members[2].ID()); err != nil {
		t.Fatalf("leave with corruption: %v", err)
	}
	remain := append(append([]*Member{}, members[:2]...), members[3:]...)
	assertAgreement(t, remain)
}

// TestSessionAccessors covers the Session helper methods.
func TestSessionAccessors(t *testing.T) {
	net, members := buildGroup(t, 4, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	s := members[0].Session()
	if s.Controller() != members[0].ID() || s.Last() != members[3].ID() {
		t.Fatal("controller/last wrong")
	}
	if s.Position(members[2].ID()) != 2 || s.Position("nobody") != -1 {
		t.Fatal("Position wrong")
	}
	if s.Neighbor(0, -1) != members[3].ID() || s.Neighbor(3, 1) != members[0].ID() {
		t.Fatal("ring neighbours wrong")
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
		rs[i] = mb.Session().R
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

// TestNewMemberValidation covers constructor error paths.
func TestNewMemberValidation(t *testing.T) {
	set := params.Default()
	sk, _ := gq.Extract(set.RSA, "x")
	if _, err := NewMember(Config{}, sk, nil); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := NewMember(Config{Set: set.Public()}, nil, nil); err == nil {
		t.Fatal("nil key accepted")
	}
	mb, err := NewMember(Config{Set: set.Public()}, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Key() != nil || mb.Session() != nil {
		t.Fatal("fresh member must have no session")
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
