package bdkey

import (
	"crypto/rand"
	"math/big"
	"testing"

	"idgka/internal/mathx"
	"idgka/internal/params"
)

// buildRing simulates n members' honest round-1/round-2 values.
func buildRing(t testing.TB, n int) (rs, zs, xs []*big.Int, g *mathx.SchnorrGroup) {
	t.Helper()
	g = params.Default().Schnorr
	rs = make([]*big.Int, n)
	zs = make([]*big.Int, n)
	xs = make([]*big.Int, n)
	for i := 0; i < n; i++ {
		r, err := mathx.RandScalar(rand.Reader, g.Q)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
		zs[i] = g.Exp(r)
	}
	for i := 0; i < n; i++ {
		x, err := XValue(zs[(i+1)%n], zs[(i-1+n)%n], rs[i], g.P)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = x
	}
	return rs, zs, xs, g
}

func TestLemma1HoldsForHonestRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 16} {
		_, _, xs, g := buildRing(t, n)
		if err := CheckLemma1(xs, g.P); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestLemma1DetectsCorruption(t *testing.T) {
	_, _, xs, g := buildRing(t, 5)
	xs[2] = new(big.Int).Add(xs[2], big.NewInt(1))
	if err := CheckLemma1(xs, g.P); err == nil {
		t.Fatal("corrupted X passed Lemma 1")
	}
}

func TestAllMembersAgreeAndMatchEquation3(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 10} {
		rs, zs, xs, g := buildRing(t, n)
		want := DirectKey(g.G, rs, g.Q, g.P)
		for i := 0; i < n; i++ {
			k, err := Key(i, rs[i], zs[(i-1+n)%n], xs, g.P)
			if err != nil {
				t.Fatal(err)
			}
			if k.Cmp(want) != 0 {
				t.Fatalf("n=%d member %d disagrees with equation (3)", n, i)
			}
		}
	}
}

func TestKeyIndexValidation(t *testing.T) {
	rs, zs, xs, g := buildRing(t, 3)
	if _, err := Key(-1, rs[0], zs[2], xs, g.P); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := Key(3, rs[0], zs[2], xs, g.P); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := Key(0, rs[0], zs[2], nil, g.P); err == nil {
		t.Fatal("empty ring accepted")
	}
}

func TestXValueRejectsNonInvertible(t *testing.T) {
	g := params.Default().Schnorr
	if _, err := XValue(big.NewInt(2), new(big.Int).Set(g.P), big.NewInt(3), g.P); err == nil {
		t.Fatal("z_prev = p (≡0) accepted")
	}
}

func TestKeyDiffersWhenExponentChanges(t *testing.T) {
	// Freshness: changing one r must change the key.
	rs, zs, xs, g := buildRing(t, 4)
	k1, _ := Key(0, rs[0], zs[3], xs, g.P)
	rs2 := append([]*big.Int(nil), rs...)
	rs2[1] = new(big.Int).Add(rs[1], big.NewInt(1))
	want := DirectKey(g.G, rs2, g.Q, g.P)
	if k1.Cmp(want) == 0 {
		t.Fatal("key insensitive to exponent change")
	}
}

func BenchmarkKeyN100(b *testing.B) {
	rs, zs, xs, g := buildRing(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Key(0, rs[0], zs[99], xs, g.P); err != nil {
			b.Fatal(err)
		}
	}
}

// TestXFromPowersMatchesXValue checks the edge-carrying restructure: the
// X assembled from the two directed edge powers must be bit-identical to
// the ratio-form XValue.
func TestXFromPowersMatchesXValue(t *testing.T) {
	rs, zs, xs, g := buildRing(t, 5)
	for i := 0; i < 5; i++ {
		a := new(big.Int).Exp(zs[(i+1)%5], rs[i], g.P)
		b := new(big.Int).Exp(zs[(i-1+5)%5], rs[i], g.P)
		got, err := XFromPowers(a, b, g.P)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(xs[i]) != 0 {
			t.Fatalf("member %d: XFromPowers diverges from XValue", i)
		}
	}
	if _, err := XFromPowers(big.NewInt(2), new(big.Int).Set(g.P), g.P); err == nil {
		t.Fatal("non-invertible edge power accepted")
	}
}

// TestKeyFromEdgeMontMatchesKey checks the Montgomery-domain Horner
// assembly against the straight-line equation (3) for every member of
// several ring sizes, including the n=1 and n=2 degenerate shapes, and
// its rejection of an empty ring and an out-of-range index.
func TestKeyFromEdgeMontMatchesKey(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16} {
		rs, zs, xs, g := buildRing(t, n)
		mo := g.Mont()
		if mo == nil {
			t.Fatal("nil Montgomery context")
		}
		xsMont := make([]mathx.Elem, n)
		for i := range xs {
			xsMont[i] = mo.ToMont(xs[i])
		}
		for i := 0; i < n; i++ {
			zPrev := zs[(i-1+n)%n]
			want, err := Key(i, rs[i], zPrev, xs, g.P)
			if err != nil {
				t.Fatal(err)
			}
			edge := new(big.Int).Exp(zPrev, rs[i], g.P)
			got, err := KeyFromEdgeMont(mo, i, mo.ToMont(edge), xsMont)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d member %d: KeyFromEdgeMont diverges from Key", n, i)
			}
		}
		one := mo.MontOne()
		if _, err := KeyFromEdgeMont(mo, 0, one, nil); err == nil {
			t.Fatal("empty ring accepted")
		}
		if _, err := KeyFromEdgeMont(mo, n, one, xsMont); err == nil {
			t.Fatal("out-of-range index accepted")
		}
	}
}

// TestCheckLemma1MontMatches checks the Montgomery-domain Lemma 1 product
// check agrees with the big.Int one on both honest and corrupted rings.
func TestCheckLemma1MontMatches(t *testing.T) {
	_, _, xs, g := buildRing(t, 6)
	mo := g.Mont()
	toMont := func(vs []*big.Int) []mathx.Elem {
		es := make([]mathx.Elem, len(vs))
		for i, v := range vs {
			es[i] = mo.ToMont(v)
		}
		return es
	}
	if err := CheckLemma1Mont(mo, toMont(xs)); err != nil {
		t.Fatalf("honest ring rejected: %v", err)
	}
	xs[3] = new(big.Int).Add(xs[3], big.NewInt(1))
	if err := CheckLemma1Mont(mo, toMont(xs)); err == nil {
		t.Fatal("corrupted X passed Montgomery Lemma 1")
	}
}
