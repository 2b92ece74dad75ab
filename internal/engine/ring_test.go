package engine

import (
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/bdkey"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// TestRound2PowersMatchXValue runs round 1 of an initial flow FIFO and
// checks the round-2 state of every member but the controller (which
// holds its round 2 until all others' arrive): X, raised from the ratio
// z_next·z_prev^{-1}, equals bdkey.XValue on the raw neighbour values,
// and the edge kept for equation (3) equals z_prev^r. The 2-member ring
// has z_next = z_prev, so X = 1.
func TestRound2PowersMatchXValue(t *testing.T) {
	set := params.Default()
	p := set.Schnorr.P
	mo := set.Schnorr.Mont()
	for _, n := range []int{2, 5} {
		ring := make([]string, n)
		machines := map[string]*Machine{}
		for i := range ring {
			ring[i] = fmt.Sprintf("r2-%02d", i)
			sk, err := gq.Extract(set.RSA, ring[i])
			if err != nil {
				t.Fatal(err)
			}
			if machines[ring[i]], err = NewMachine(Config{Set: set.Public()}, sk, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Deliver round 1 only; round 2 stays undelivered, so each
		// member's state holds exactly what its own round 2 computed.
		type delivery struct {
			to  string
			msg netsim.Message
		}
		var queue []delivery
		round2 := 0
		send := func(from string, outs []Outbound) {
			for _, o := range outs {
				if o.Type == MsgRound2 {
					round2++
					continue
				}
				for _, id := range ring {
					if id != from {
						queue = append(queue, delivery{id, netsim.Message{From: from, Type: o.Type, Payload: o.Payload}})
					}
				}
			}
		}
		for _, id := range ring {
			outs, _, err := machines[id].StartInitial("r2", ring)
			if err != nil {
				t.Fatal(err)
			}
			send(id, outs)
		}
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			outs, _ := machines[d.to].Step(d.msg)
			send(d.to, outs)
		}
		if round2 != n-1 {
			t.Fatalf("n=%d: %d members reached round 2", n, round2)
		}
		for i := 1; i < n; i++ {
			id := ring[i]
			rs := machines[id].flows["r2"].f.(*ringFlow).ring
			zNext, zPrev := rs.z[(i+1)%n], rs.z[(i-1+n)%n]
			want, err := bdkey.XValue(zNext, zPrev, rs.r, p)
			if err != nil {
				t.Fatal(err)
			}
			k := mo.Words()
			if new(big.Int).SetBits(rs.xl[i*k:(i+1)*k]).Cmp(want) != 0 {
				t.Fatalf("n=%d, %s: round-2 X differs from bdkey.XValue", n, id)
			}
			if mo.FromMont(rs.edge).Cmp(new(big.Int).Exp(zPrev, rs.r, p)) != 0 {
				t.Fatalf("n=%d, %s: edge differs from z_prev^r", n, id)
			}
		}
	}
}
