package engine

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/bdkey"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// firstBytes is a randomness source whose first bytes are fixed and the
// rest crypto/rand: a machine's first draw is its round-1 exponent, so a
// test picks r with it.
type firstBytes struct{ prefix []byte }

func (f *firstBytes) Read(b []byte) (int, error) {
	if len(f.prefix) == 0 {
		return rand.Read(b)
	}
	n := copy(b, f.prefix)
	f.prefix = f.prefix[n:]
	return n, nil
}

// drawing returns a source whose mathx.DrawScalar(·, q) draws r, for r
// in [1, q-1]: crypto/rand.Int reads the draw r - 1 as one big-endian
// block as wide as q - 2.
func drawing(q, r *big.Int) *firstBytes {
	width := (new(big.Int).Sub(q, big.NewInt(2)).BitLen() + 7) / 8
	return &firstBytes{new(big.Int).Sub(r, big.NewInt(1)).FillBytes(make([]byte, width))}
}

// TestRound2PowersMatchXValue runs an initial flow FIFO, round 1 first.
// Before round 2 is delivered it checks the state of every member but
// the controller (which holds its round 2 until all others' arrive): X,
// the forward edge z_next^r times z_prev^{q-r}, equals bdkey.XValue on
// the raw neighbour values, and the edge kept for equation (3) equals
// z_next^r. Then it delivers round 2 and checks every member's key
// against bdkey.DirectKey. Rows put r = 1 and r = q - 1 at chosen
// positions (zero for a random r); the 2-member ring has
// z_next = z_prev, so X = 1.
func TestRound2PowersMatchXValue(t *testing.T) {
	set := params.Default()
	sg := set.Schnorr
	p, q := sg.P, sg.Q
	mo := sg.Mont()
	qMinus1 := new(big.Int).Sub(q, big.NewInt(1))
	for _, exps := range [][]*big.Int{
		{big.NewInt(1), qMinus1},
		{nil, big.NewInt(1), qMinus1},
		{nil, qMinus1, nil, big.NewInt(1), nil},
	} {
		n := len(exps)
		ring := make([]string, n)
		machines := map[string]*Machine{}
		for i := range ring {
			ring[i] = fmt.Sprintf("r2-%02d", i)
			sk, err := gq.Extract(set.RSA, ring[i])
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Set: set.Public()}
			if exps[i] != nil {
				cfg.Rand = drawing(q, exps[i])
			}
			if machines[ring[i]], err = NewMachine(cfg, sk, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Deliver round 1 first; round 2 is held, so each member's state
		// holds exactly what its own round 2 computed.
		type delivery struct {
			to  string
			msg netsim.Message
		}
		var queue, held []delivery
		holding := true
		keys := map[string]*big.Int{}
		send := func(from string, outs []Outbound, evts []Event) {
			for _, o := range outs {
				for _, id := range ring {
					if id != from {
						d := delivery{id, netsim.Message{From: from, Type: o.Type, Payload: o.Payload}}
						if holding && o.Type == MsgRound2 {
							held = append(held, d)
						} else {
							queue = append(queue, d)
						}
					}
				}
			}
			for _, e := range evts {
				if e.Kind != EventEstablished {
					t.Fatalf("n=%d, %s: unexpected event %+v", n, from, e)
				}
				keys[from] = e.Group.Key.BigVarTime()
			}
		}
		for _, id := range ring {
			outs, evts, err := machines[id].StartInitial("r2", ring)
			if err != nil {
				t.Fatal(err)
			}
			send(id, outs, evts)
		}
		drain := func() {
			for len(queue) > 0 {
				d := queue[0]
				queue = queue[1:]
				outs, evts := machines[d.to].Step(d.msg)
				send(d.to, outs, evts)
			}
		}
		drain()
		if len(held) != (n-1)*(n-1) {
			t.Fatalf("n=%d: %d round-2 deliveries, want %d", n, len(held), (n-1)*(n-1))
		}
		rs := make([]*big.Int, n)
		for i, id := range ring {
			st := machines[id].flows["r2"].f.(*ringFlow).ring
			r := st.r.BigVarTime()
			rs[i] = r
			if exps[i] != nil && r.Cmp(exps[i]) != 0 {
				t.Fatalf("n=%d, %s: drew r = %v, want %v", n, id, r, exps[i])
			}
			if i == 0 {
				continue
			}
			zNext, zPrev := mo.FromMont(st.zs.ToMont((i+1)%n)), mo.FromMont(st.zs.ToMont((i-1+n)%n))
			want, err := bdkey.XValue(zNext, zPrev, r, p)
			if err != nil {
				t.Fatal(err)
			}
			if mo.FromMont(st.xs.ToMont(i)).Cmp(want) != 0 {
				t.Fatalf("n=%d, %s: round-2 X differs from bdkey.XValue", n, id)
			}
			if mo.FromMont(st.edge).Cmp(new(big.Int).Exp(zNext, r, p)) != 0 {
				t.Fatalf("n=%d, %s: edge differs from z_next^r", n, id)
			}
		}
		queue, holding = held, false
		drain()
		want := bdkey.DirectKey(sg.G, rs, q, p)
		for _, id := range ring {
			if keys[id] == nil || keys[id].Cmp(want) != 0 {
				t.Fatalf("n=%d, %s: key %v, want bdkey.DirectKey %v", n, id, keys[id], want)
			}
		}
	}
}
