package engine_test

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
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// ctrReader is a deterministic randomness stream (SHA-256 in counter
// mode) so a protocol run draws fixed keying material and its keys and
// meters can be pinned.
type ctrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newCtrReader(seed string) *ctrReader {
	return &ctrReader{seed: sha256.Sum256([]byte(seed))}
}

func (r *ctrReader) Read(p []byte) (int, error) {
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

// seededNodes builds one machine per id over a shared deterministic
// randomness stream.
func seededNodes(t testing.TB, ids []string, seed string) map[string]*node {
	t.Helper()
	set := params.Default()
	cfg := engine.Config{Set: set.Public(), Rand: newCtrReader(seed)}
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

// runLifecycle drives establish + leave over a deterministic bus and
// returns the final per-member meter reports.
func runLifecycle(t *testing.T, nodes map[string]*node, ring []string) map[string]meter.Report {
	t.Helper()
	b := newBus(t, nodes, ring)
	for _, id := range ring {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("acc/est", ring)
		})
	}
	b.pump()
	assertSession(t, nodes, ring, "acc/est")

	survivors, refresh, err := engine.PlanLeave(nodes[ring[0]].mc.Session("acc/est"), []string{ring[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range survivors {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartPartition("acc/leave", "acc/est", survivors, refresh)
		})
	}
	b.pump()
	assertSession(t, nodes, survivors, "acc/leave")

	reports := map[string]meter.Report{}
	for id, nd := range nodes {
		reports[id] = nd.mc.Meter().Report()
	}
	return reports
}

// assertDirectKey checks a committed session key against
// bdkey.DirectKey, g^{Σ r_j r_{j+1}}, over the members' own exponents in
// roster order: a reference that shares no code with the engine's
// equation (3).
func assertDirectKey(t *testing.T, nodes map[string]*node, sid string) {
	t.Helper()
	sg := params.Default().Schnorr
	var roster []string
	for _, nd := range nodes {
		if g := nd.mc.Session(sid); g != nil {
			roster = g.Roster
			break
		}
	}
	rs := make([]*big.Int, len(roster))
	for i, id := range roster {
		rs[i] = nodes[id].mc.Session(sid).R
	}
	want := bdkey.DirectKey(sg.G, rs, sg.Q, sg.P)
	for _, id := range roster {
		if nodes[id].mc.Session(sid).Key.Cmp(want) != 0 {
			t.Fatalf("%s: %s's key differs from g^{Σ r_j r_{j+1}}", sid, id)
		}
	}
}

// keyDigest is the hex SHA-256 of a key's big-endian bytes.
func keyDigest(k *big.Int) string {
	d := sha256.Sum256(k.Bytes())
	return hex.EncodeToString(d[:])
}

// gqOps is a per-scheme counter map holding n GQ operations.
func gqOps(n int) map[meter.Scheme]int { return map[meter.Scheme]int{meter.SchemeGQ: n} }

// TestAccelTransparent runs a seeded establish + leave lifecycle on the
// Montgomery hot path and checks both keys against bdkey.DirectKey, then
// pins the keys and every member's meter to goldens. The goldens were
// recorded on the serial math/big path (bdkey.XValue and bdkey.Key),
// which the engine no longer carries, with the same seeds; the 8-member
// ring also covers a larger establishment.
func TestAccelTransparent(t *testing.T) {
	cases := []struct {
		seed   string
		ring   []string
		keys   map[string]string // session id -> keyDigest
		meters map[string]meter.Report
	}{
		{
			seed: "accel-transparency",
			ring: []string{"A01", "A02", "A03", "A04", "A05"},
			keys: map[string]string{
				"acc/est":   "07ac3bf63378dfb4c514a5b5ae437aa4cf842590dcd845b1d8e6ac60c07aff5f",
				"acc/leave": "93dad257960bbef4e620a88518f1c289ea5bb512fe85cf385cba2dcd95956bc7",
			},
			meters: map[string]meter.Report{
				"A01": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A02": {Exp: 3, SignGen: gqOps(1), SignVer: gqOps(1)},
				"A03": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A04": {Exp: 5, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A05": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
			},
		},
		{
			seed: "accel-transparency/8",
			ring: []string{"A01", "A02", "A03", "A04", "A05", "A06", "A07", "A08"},
			keys: map[string]string{
				"acc/est":   "5abcb608de6395780948f176c313da55ef37449b2d04a854d550724e8c8ab799",
				"acc/leave": "f4714f7a9fdb41fff725a1283871a4f670237e727e8e8cc9eb8649e4ec1a0b89",
			},
			meters: map[string]meter.Report{
				"A01": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A02": {Exp: 3, SignGen: gqOps(1), SignVer: gqOps(1)},
				"A03": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A04": {Exp: 5, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A05": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A06": {Exp: 5, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A07": {Exp: 6, SignGen: gqOps(2), SignVer: gqOps(2)},
				"A08": {Exp: 5, SignGen: gqOps(2), SignVer: gqOps(2)},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d", len(tc.ring)), func(t *testing.T) {
			nodes := seededNodes(t, tc.ring, tc.seed)
			reports := runLifecycle(t, nodes, tc.ring)
			for sid, want := range tc.keys {
				assertDirectKey(t, nodes, sid)
				if got := keyDigest(nodes[tc.ring[0]].mc.Session(sid).Key); got != want {
					t.Errorf("%s: key digest %s, golden %s", sid, got, want)
				}
			}
			for id, want := range tc.meters {
				if !reflect.DeepEqual(reports[id], want) {
					t.Errorf("%s: meter %+v, golden %+v", id, reports[id], want)
				}
			}
		})
	}
}

// TestCorruptResponseFailsBeforeKey checks a corrupted GQ response fails
// closed and pins the failure path's meter: every member that received
// the bad response surfaces the retryable batch-verification failure
// after charging the check (one SignVer) and no key computation (its two
// Exps are z_i and X_i). The corrupting member's own view holds its true
// response, so it commits.
func TestCorruptResponseFailsBeforeKey(t *testing.T) {
	ring := []string{"C01", "C02", "C03"}
	nodes := seededNodes(t, ring, "corrupt")
	b := newBus(t, nodes, ring)
	for _, id := range ring {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("c/est", ring)
		})
	}
	for len(b.queue) > 0 {
		d := b.queue[0]
		b.queue = b.queue[1:]
		if d.msg.Type == engine.MsgRound2 && d.msg.From == "C02" {
			d.msg.Payload = append([]byte(nil), d.msg.Payload...)
			d.msg.Payload[len(d.msg.Payload)-1] ^= 0x01
		}
		nd := b.nodes[d.to]
		outs, evts := nd.mc.Step(d.msg)
		nd.record(evts)
		b.send(d.to, outs)
	}
	for _, id := range ring {
		nd := nodes[id]
		got := nd.mc.Meter().Report()
		if id == "C02" {
			if nd.established("c/est") == nil {
				t.Fatal("C02 did not commit on its uncorrupted view")
			}
			if want := (meter.Report{Exp: 3, SignGen: gqOps(1), SignVer: gqOps(1)}); !reflect.DeepEqual(got, want) {
				t.Fatalf("C02: meter %+v, want %+v", got, want)
			}
			continue
		}
		fs := nd.failures()
		if len(fs) != 1 || !fs[0].Retryable {
			t.Fatalf("%s: failures %+v, want one retryable failure", id, fs)
		}
		if want := (meter.Report{Exp: 2, SignGen: gqOps(1), SignVer: gqOps(1)}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: meter after the failed attempt %+v, want %+v", id, got, want)
		}
	}
}
