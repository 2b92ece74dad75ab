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

// honestRing returns n packed X values over the default group's p whose
// product is 1, as Lemma 1 requires of an honest ring, and a directed
// edge in the Montgomery domain.
func honestRing(t testing.TB, mo *mathx.Modulus, n int) ([]big.Word, mathx.Elem) {
	t.Helper()
	p := params.Default().Schnorr.P
	k := mo.Words()
	flat := make([]big.Word, n*k)
	prod := big.NewInt(1)
	draw := func() *big.Int {
		v, err := mathx.RandInt(rand.Reader, p)
		if err != nil {
			t.Fatal(err)
		}
		return v.SetBit(v, 0, 1) // never 0
	}
	for j := 0; j < n-1; j++ {
		x := draw()
		prod.Mod(prod.Mul(prod, x), p)
		mo.Load(flat[j*k:(j+1)*k], x)
	}
	last := new(big.Int).ModInverse(prod, p)
	mo.Load(flat[(n-1)*k:], last)
	return flat, mo.ToMont(draw())
}

// TestKeyFromEdgeBackends runs bdkey.KeyFromEdge with its chain on the
// radix-2^52 lane and on montMul for every ring size from 1 to 33 and
// every position, and requires the same key from both.
func TestKeyFromEdgeBackends(t *testing.T) {
	mo := params.Default().Schnorr.Mont()
	generic := mathx.WithoutLane(mo)
	for n := 1; n <= 33; n++ {
		flat, edge := honestRing(t, mo, n)
		for i := 0; i < n; i++ {
			want, err := bdkey.KeyFromEdge(generic, i, edge, flat)
			if err != nil {
				t.Fatalf("n=%d member %d, montMul: %v", n, i, err)
			}
			got, err := bdkey.KeyFromEdge(mo, i, edge, flat)
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
	mo := params.Default().Schnorr.Mont()
	for _, n := range []int{4, 32} {
		flat, edge := honestRing(b, mo, n)
		for _, name := range []string{"lane", "generic"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				mo := mo
				if name == "generic" {
					mo = mathx.WithoutLane(mo)
				} else if !mathx.HasLane(mo) {
					b.Skip("no radix-2^52 kernel on this CPU")
				}
				for i := 0; i < b.N; i++ {
					if _, err := bdkey.KeyFromEdge(mo, i%n, edge, flat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
