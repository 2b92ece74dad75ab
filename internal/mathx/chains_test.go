package mathx_test

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/bdkey"
	"idgka/internal/mathx"
	"idgka/internal/params"
)

// honestRing returns n X values over the default group's p whose
// product is 1, as Lemma 1 requires of an honest ring, and a directed
// edge, as big.Ints that each backend loads into its own representation.
func honestRing(t testing.TB, n int) ([]*big.Int, *big.Int) {
	t.Helper()
	p := params.Default().Schnorr.P
	xs := make([]*big.Int, n)
	prod := big.NewInt(1)
	draw := func() *big.Int {
		v, err := mathx.RandInt(rand.Reader, p)
		if err != nil {
			t.Fatal(err)
		}
		return v.SetBit(v, 0, 1) // never 0
	}
	for j := 0; j < n-1; j++ {
		xs[j] = draw()
		prod.Mod(prod.Mul(prod, xs[j]), p)
	}
	xs[n-1] = new(big.Int).ModInverse(prod, p)
	return xs, draw()
}

// packRing loads xs into a Packed of mo's.
func packRing(t testing.TB, mo *mathx.Modulus, xs []*big.Int) mathx.Packed {
	t.Helper()
	p := mo.NewPacked(len(xs))
	for j, x := range xs {
		if !p.Load(j, x) {
			t.Fatalf("X_%d out of range", j)
		}
	}
	return p
}

// TestKeyFromEdgeBackends runs bdkey.KeyFromEdge with its chain on the
// radix-2^52 lane and on montMul for every ring size from 1 to 33 and
// every position, each backend on the ring and edge loaded into its own
// representation, and requires the same key from both.
func TestKeyFromEdgeBackends(t *testing.T) {
	mo := params.Default().Schnorr.Mont()
	generic := mathx.WithoutLane(mo)
	for n := 1; n <= 33; n++ {
		xs, edge := honestRing(t, n)
		flat, gflat := packRing(t, mo, xs), packRing(t, generic, xs)
		for i := 0; i < n; i++ {
			want, err := bdkey.KeyFromEdge(generic, i, generic.ToMont(edge), gflat)
			if err != nil {
				t.Fatalf("n=%d member %d, montMul: %v", n, i, err)
			}
			got, err := bdkey.KeyFromEdge(mo, i, mo.ToMont(edge), flat)
			if err != nil || got.Cmp(want) != 0 {
				t.Fatalf("n=%d member %d: lane key %v (error %v), montMul key %v", n, i, got, err, want)
			}
		}
	}
}

// BenchmarkKeyFromEdge times one member's Lemma 1 check and equation (3)
// at the default 1024-bit group, with the chain on the radix-2^52 kernel
// ("lane", where the CPU runs it) and on montMul ("generic").
func BenchmarkKeyFromEdge(b *testing.B) {
	lane := params.Default().Schnorr.Mont()
	for _, n := range []int{4, 32} {
		xs, e := honestRing(b, n)
		for _, name := range []string{"lane", "generic"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				mo := lane
				if name == "generic" {
					mo = mathx.WithoutLane(mo)
				} else if !mathx.HasLane(mo) {
					b.Skip("no radix-2^52 kernel on this CPU")
				}
				flat, edge := packRing(b, mo, xs), mo.ToMont(e)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bdkey.KeyFromEdge(mo, i%n, edge, flat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
