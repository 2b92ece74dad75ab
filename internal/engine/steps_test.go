package engine

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"

	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// TestIngestStateTablesRange: a state-table entry whose z is not below p,
// or whose t is not below N, fails the ingestion retryably; a zero value
// marks an absent entry, a slot the group already holds is kept and a
// new entry fills its member's empty slots.
func TestIngestStateTablesRange(t *testing.T) {
	set := params.Default()
	sk, err := gq.Extract(set.RSA, "tables-01")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMachine(Config{Set: set.Public()}, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, n, zero, two, three := set.Schnorr.P, set.RSA.N, new(big.Int), big.NewInt(2), big.NewInt(3)
	block := func(id string, z, t *big.Int) []byte {
		return wire.NewBuffer().PutUint(1).PutString(id).PutBig(z).PutBig(t).Bytes()
	}
	for _, tc := range []struct {
		name string
		z, t *big.Int
	}{{"z=p", p, two}, {"t=N", two, n}} {
		if err := mc.ingestStateTables(mc.newGroup([]string{"A01"}), block("A01", tc.z, tc.t)); !IsRetryable(err) {
			t.Errorf("%s: got %v, want a retryable error", tc.name, err)
		}
	}

	g := mc.newGroup([]string{"A01", "A02"})
	g.zs.Load(0, three)
	if err := mc.ingestStateTables(g, block("A01", two, zero)); err != nil {
		t.Fatal(err)
	}
	if z, tb := g.zs.Bytes(0), g.ts.Bytes(0); !bytes.Equal(z, three.Bytes()) || len(tb) != 0 {
		t.Fatalf("existing z or absent t overwritten: z %x t %x", z, tb)
	}
	if err := mc.ingestStateTables(g, block("A02", two, three)); err != nil {
		t.Fatal(err)
	}
	if z, tb := g.zs.Bytes(1), g.ts.Bytes(1); !bytes.Equal(z, two.Bytes()) || !bytes.Equal(tb, three.Bytes()) {
		t.Fatalf("A02 not recorded: z %x t %x", z, tb)
	}
}

// TestFoldKeyAndDHPowerMatchBig pins the fixed-window K* fold and
// Diffie-Hellman power to their math/big formulas,
// K·(z_next·z_last)^{-r}·(z_next·z̃)^{r'} mod p and z^r mod p, with
// exponents 1, q - 1 and random ones, and checks their meter charges.
// Every z is g^x, as an honest member's is: the fold raises
// z_next·z_last to q - r, which equals the inverse power only in the
// order-q subgroup. The last row puts z_last = p - 1, of order 2, and
// pins the documented deviation: there the fold's K* is the formula's
// negated.
func TestFoldKeyAndDHPowerMatchBig(t *testing.T) {
	set := params.Default()
	sk, err := gq.Extract(set.RSA, "A01")
	if err != nil {
		t.Fatal(err)
	}
	m := meter.New()
	mc, err := NewMachine(Config{Set: set.Public()}, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	sg := set.Schnorr
	p, q := sg.P, sg.Q
	rnd := func(bound *big.Int) *big.Int {
		v, err := mathx.RandScalar(rand.Reader, bound)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	scalar := func(r *big.Int) mathx.Scalar {
		s, err := mathx.NewScalar(q, r)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	qMinus1 := new(big.Int).Sub(q, mathx.One)
	exps := []*big.Int{mathx.One, qMinus1, rnd(q), rnd(q), rnd(q)}
	g := mc.newGroup([]string{"A01", "A02", "A03", "A04"})
	zs := make([]*big.Int, g.Size())
	for i := range zs {
		zs[i] = sg.Exp(rnd(q))
		g.zs.Load(i, zs[i])
	}
	key := rnd(p)
	if g.Key, err = mathx.NewScalar(p, key); err != nil {
		t.Fatal(err)
	}
	for i, r := range exps {
		deviant := i == len(exps)-1
		if deviant {
			zs[3] = new(big.Int).Sub(p, mathx.One)
			g.zs.Load(3, zs[3])
		}
		rNew, zNew := exps[(i+1)%len(exps)], sg.Exp(rnd(q))
		g.R = scalar(r)
		zNext, zLast := zs[1], zs[3]
		out := new(big.Int).Mul(zNext, zLast)
		out.ModInverse(out.Mod(out, p), p).Exp(out, r, p)
		in := new(big.Int).Mul(zNext, zNew)
		in.Exp(in.Mod(in, p), rNew, p)
		want := new(big.Int).Mul(key, out)
		want.Mod(want, p).Mul(want, in).Mod(want, p)
		if deviant {
			want.Sub(p, want)
		}
		before := m.Report().Exp
		kStar, err := mc.foldKey(g, zNew, scalar(rNew))
		if err != nil {
			t.Fatal(err)
		}
		if got := kStar.BigVarTime(); got.Cmp(want) != 0 {
			t.Fatalf("r=%v r'=%v deviant=%v: foldKey = %v, want %v", r, rNew, deviant, got, want)
		}
		kDH, err := mc.dhPower(zNew, scalar(r))
		if err != nil {
			t.Fatal(err)
		}
		if got := kDH.BigVarTime(); got.Cmp(new(big.Int).Exp(zNew, r, p)) != 0 {
			t.Fatalf("r=%v: dhPower = %v, want %v", r, got, new(big.Int).Exp(zNew, r, p))
		}
		if d := m.Report().Exp - before; d != 3 {
			t.Fatalf("foldKey and dhPower charged %d exponentiations, want 3", d)
		}
	}
}
