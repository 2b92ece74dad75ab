package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"idgka/internal/bdkey"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
)

// montCtrReader is a deterministic randomness stream (SHA-256 in counter
// mode). Each member gets its own stream seeded by its identity, so the
// keying material two runs draw is identical regardless of how the
// orchestrators interleave the members' goroutines.
type montCtrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newMontCtrReader(seed string) *montCtrReader {
	return &montCtrReader{seed: sha256.Sum256([]byte(seed))}
}

func (r *montCtrReader) Read(p []byte) (int, error) {
	for len(r.buf) < len(p) {
		var block [40]byte
		copy(block[:32], r.seed[:])
		binary.BigEndian.PutUint64(block[32:], r.ctr)
		r.ctr++
		sum := sha256.Sum256(block[:])
		r.buf = append(r.buf, sum[:]...)
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// runFiveFlows drives all five protocol flows — initial, join, leave,
// merge, partition — with per-member deterministic randomness, running
// the explicit key-confirmation round after every flow. It checks every
// flow's key against bdkey.DirectKey over the new ring's exponents and
// returns the five committed keys in order plus every member's final
// meter.
func runFiveFlows(t *testing.T, seed string) ([]*big.Int, map[string]meter.Report) {
	t.Helper()
	set := params.Default()
	meters := map[string]*meter.Meter{}
	newMb := func(net *netsim.Network, id string) *engine.Machine {
		mc := newMachine(t, net, id, func(c *engine.Config) { c.Rand = newMontCtrReader(seed + "/" + id) })
		meters[id] = mc.Meter()
		return mc
	}
	confirm := func(net *netsim.Network, members []*engine.Machine, what string) *big.Int {
		if err := ConfirmKey(net, members); err != nil {
			t.Fatalf("%s: key confirmation: %v", what, err)
		}
		return assertAgreement(t, members)
	}
	// directKey checks a flow's key against g^{Σ r_j r_{j+1}} over the
	// members' own exponents in roster order: a reference that shares no
	// code with the engine's equation (3) or the Join and Merge folds.
	directKey := func(members []*engine.Machine, key *big.Int, what string) {
		byID := map[string]*engine.Machine{}
		for _, mb := range members {
			byID[mb.ID()] = mb
		}
		roster := members[0].Group().Roster
		rs := make([]*big.Int, len(roster))
		for i, id := range roster {
			rs[i] = byID[id].Group().R.BigVarTime()
		}
		sg := set.Schnorr
		if bdkey.DirectKey(sg.G, rs, sg.Q, sg.P).Cmp(key) != 0 {
			t.Fatalf("%s: key differs from g^{Σ r_j r_{j+1}}", what)
		}
	}

	var keys []*big.Int
	net := netsim.New()
	var group []*engine.Machine
	for i := 0; i < 5; i++ {
		group = append(group, newMb(net, fmt.Sprintf("M%02d", i+1)))
	}
	if err := RunInitial(net, group); err != nil {
		t.Fatalf("initial: %v", err)
	}
	keys = append(keys, confirm(net, group, "initial"))
	directKey(group, keys[0], "initial")

	joiner := newMb(net, "M06")
	if err := RunJoin(net, group, joiner); err != nil {
		t.Fatalf("join: %v", err)
	}
	group = append(group, joiner)
	keys = append(keys, confirm(net, group, "join"))
	directKey(group, keys[1], "join")

	if err := RunLeave(net, group, "M02"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	var g2 []*engine.Machine
	for _, mb := range group {
		if mb.ID() != "M02" {
			g2 = append(g2, mb)
		}
	}
	group = g2
	keys = append(keys, confirm(net, group, "leave"))
	directKey(group, keys[2], "leave")

	netB := netsim.New()
	var groupB []*engine.Machine
	for i := 0; i < 3; i++ {
		groupB = append(groupB, newMb(netB, fmt.Sprintf("N%02d", i+1)))
	}
	if err := RunInitial(netB, groupB); err != nil {
		t.Fatalf("merge: group B initial: %v", err)
	}
	for _, mb := range groupB {
		if err := net.Register(mb.ID(), mb.Meter()); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunMerge(net, group, groupB); err != nil {
		t.Fatalf("merge: %v", err)
	}
	group = append(group, groupB...)
	keys = append(keys, confirm(net, group, "merge"))
	directKey(group, keys[3], "merge")

	evict := []string{group[1].ID(), group[3].ID()}
	if err := RunPartition(net, group, evict); err != nil {
		t.Fatalf("partition: %v", err)
	}
	var g3 []*engine.Machine
	for _, mb := range group {
		if mb.ID() != evict[0] && mb.ID() != evict[1] {
			g3 = append(g3, mb)
		}
	}
	keys = append(keys, confirm(net, g3, "partition"))
	directKey(g3, keys[4], "partition")

	reports := map[string]meter.Report{}
	for id, m := range meters {
		reports[id] = m.Report()
	}
	return keys, reports
}

// TestMontTransparent pins the Montgomery hot path across all five
// flows. Every key is checked against bdkey.DirectKey inside
// runFiveFlows. Every committed key and every
// member's meter, bytes included, must also match goldens. The goldens
// were recorded on the serial math/big path (bdkey.XValue and bdkey.Key),
// which the engine no longer carries, with the same seed.
func TestMontTransparent(t *testing.T) {
	flows := []string{"initial", "join", "leave", "merge", "partition"}
	goldenKeys := []string{
		"1e276880700e07be1dee1e8c8b26d779c6a1c574f47af90445e1c3407c9f15ae",
		"1d72fcb301a1812e63a4aea10a6a71a85fa45e694d3cd904f53b3bf273bc8193",
		"c55a7b79675aa4ba68d19079f8e701b260ee4f6bf81d6ba24716c6cc53f2e008",
		"8370408cc26267712035b7794e0c3c0bb056f0c1c3ee4f082ffa160bb6ae4945",
		"946e92c4ac81af9f1148b6dbc2e50e36fcef118b2a559361a8f89f5ce26b70f8",
	}
	gqOps := func(n int) map[meter.Scheme]int { return map[meter.Scheme]int{meter.SchemeGQ: n} }
	goldenMeters := map[string]meter.Report{
		"M01": {Exp: 15, SignGen: gqOps(4), SignVer: gqOps(5), SymEnc: 4, SymDec: 2, MsgTx: 15, MsgRx: 53, BytesTx: 2957, BytesRx: 9007, StateTx: 1363, StateRx: 821},
		"M02": {Exp: 3, SignGen: gqOps(1), SignVer: gqOps(1), SymDec: 2, MsgTx: 4, MsgRx: 64, BytesTx: 628, BytesRx: 11336, StateRx: 2184},
		"M03": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2), SymDec: 4, MsgTx: 8, MsgRx: 60, BytesTx: 1256, BytesRx: 10708, StateRx: 2184},
		"M04": {Exp: 8, SignGen: gqOps(3), SignVer: gqOps(3), SymDec: 4, MsgTx: 10, MsgRx: 58, BytesTx: 1570, BytesRx: 10394, StateRx: 2184},
		"M05": {Exp: 7, SignGen: gqOps(3), SignVer: gqOps(3), SymEnc: 2, SymDec: 3, MsgTx: 10, MsgRx: 59, BytesTx: 1892, BytesRx: 10246, StateTx: 1363, StateRx: 2184},
		"M06": {Exp: 8, SignGen: gqOps(3), SignVer: gqOps(3), SymDec: 3, MsgTx: 9, MsgRx: 45, BytesTx: 1551, BytesRx: 7662, StateRx: 3547},
		"N01": {Exp: 9, SignGen: gqOps(3), SignVer: gqOps(3), SymEnc: 3, SymDec: 1, MsgTx: 8, MsgRx: 28, BytesTx: 1841, BytesRx: 4981, StateTx: 821, StateRx: 1363},
		"N02": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2), SymDec: 2, MsgTx: 6, MsgRx: 30, BytesTx: 1170, BytesRx: 5652, StateRx: 2184},
		"N03": {Exp: 5, SignGen: gqOps(2), SignVer: gqOps(2), SymDec: 2, MsgTx: 5, MsgRx: 31, BytesTx: 899, BytesRx: 5923, StateRx: 2184},
	}
	keys, reports := runFiveFlows(t, "mont-transparency")
	if len(keys) != len(flows) {
		t.Fatalf("expected %d keys, got %d", len(flows), len(keys))
	}
	for i, name := range flows {
		d := sha256.Sum256(keys[i].Bytes())
		if got := hex.EncodeToString(d[:]); got != goldenKeys[i] {
			t.Errorf("%s: key digest %s, golden %s", name, got, goldenKeys[i])
		}
	}
	if len(reports) != len(goldenMeters) {
		t.Fatalf("%d members metered, golden has %d", len(reports), len(goldenMeters))
	}
	for id, want := range goldenMeters {
		if !reflect.DeepEqual(reports[id], want) {
			t.Errorf("%s: meter %+v, golden %+v", id, reports[id], want)
		}
	}
}
