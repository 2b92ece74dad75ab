package bdkey

import (
	"crypto/rand"
	"errors"
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

// pack loads X values into the Packed KeyFromEdge reads.
func pack(t testing.TB, mo *mathx.Modulus, xs []*big.Int) mathx.Packed {
	t.Helper()
	p := mo.NewPacked(len(xs))
	for j, x := range xs {
		if !p.Load(j, x) {
			t.Fatalf("X_%d out of range", j)
		}
	}
	return p
}

// TestKeyFromEdgeMatchesKey checks the one-chain Lemma 1 and equation (3)
// against the straight-line Key for every member of every ring size from
// 1 to 33, and its rejection of an empty ring and an out-of-range index.
func TestKeyFromEdgeMatchesKey(t *testing.T) {
	g := params.Default().Schnorr
	mo := g.Mont()
	for n := 1; n <= 33; n++ {
		rs, zs, xs, _ := buildRing(t, n)
		flat := pack(t, mo, xs)
		for i := 0; i < n; i++ {
			zPrev := zs[(i-1+n)%n]
			want, err := Key(i, rs[i], zPrev, xs, g.P)
			if err != nil {
				t.Fatal(err)
			}
			edge := new(big.Int).Exp(zPrev, rs[i], g.P)
			got, err := KeyFromEdge(mo, i, mo.ToMont(edge), flat)
			if err != nil {
				t.Fatalf("n=%d member %d: %v", n, i, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d member %d: KeyFromEdge diverges from Key", n, i)
			}
		}
		one := mo.ToMont(big.NewInt(1))
		if _, err := KeyFromEdge(mo, 0, one, mathx.Packed{}); err == nil {
			t.Fatal("empty ring accepted")
		}
		if _, err := KeyFromEdge(mo, 0, one, mo.NewPacked(0)); err == nil {
			t.Fatal("empty packed ring accepted")
		}
		if _, err := KeyFromEdge(mo, n, one, flat); err == nil {
			t.Fatal("out-of-range index accepted")
		}
	}
}

// TestKeyFromEdgeLemma1 checks that one corrupted X fails Lemma 1 in the
// chain at every member's position, as it does in CheckLemma1, and that
// the failure comes before any key.
func TestKeyFromEdgeLemma1(t *testing.T) {
	g := params.Default().Schnorr
	mo := g.Mont()
	for _, n := range []int{2, 6, 33} {
		rs, zs, xs, _ := buildRing(t, n)
		xs[n/2] = new(big.Int).Add(xs[n/2], big.NewInt(1))
		if err := CheckLemma1(xs, g.P); !errors.Is(err, ErrLemma1) {
			t.Fatalf("n=%d: CheckLemma1 = %v on a corrupted ring", n, err)
		}
		flat := pack(t, mo, xs)
		for i := 0; i < n; i++ {
			edge := mo.ToMont(new(big.Int).Exp(zs[(i-1+n)%n], rs[i], g.P))
			if key, err := KeyFromEdge(mo, i, edge, flat); !errors.Is(err, ErrLemma1) || key != nil {
				t.Fatalf("n=%d member %d: corrupted X gave key %v, error %v", n, i, key, err)
			}
		}
	}
}

// TestKeyFromEdgeCachedCorrection alternates two ring sizes on one
// modulus, so each size's R-power corrections are computed on first use
// and read from the Modulus cache afterwards; every key must match Key.
func TestKeyFromEdgeCachedCorrection(t *testing.T) {
	g := params.Default().Schnorr
	mo := g.Mont()
	for round := 0; round < 3; round++ {
		for _, n := range []int{7, 12} {
			rs, zs, xs, _ := buildRing(t, n)
			i := (round * 5) % n
			zPrev := zs[(i-1+n)%n]
			want, err := Key(i, rs[i], zPrev, xs, g.P)
			if err != nil {
				t.Fatal(err)
			}
			got, err := KeyFromEdge(mo, i, mo.ToMont(new(big.Int).Exp(zPrev, rs[i], g.P)), pack(t, mo, xs))
			if err != nil || got.Cmp(want) != 0 {
				t.Fatalf("round %d, n=%d: key %v, error %v", round, n, got, err)
			}
		}
	}
}
