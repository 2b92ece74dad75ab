package mathx

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"testing"
)

// diffModuli returns the two widths the Montgomery-resident paths are
// checked at: a one-word modulus and a 16-word (1024-bit on 64-bit
// platforms) one, the protocols' size.
func diffModuli(t *testing.T) []*big.Int {
	t.Helper()
	var out []*big.Int
	for _, words := range []int{1, 16} {
		p, err := RandPrime(rand.Reader, words*bits.UintSize)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func randBelow(t *testing.T, bound *big.Int) *big.Int {
	t.Helper()
	v, err := RandInt(rand.Reader, bound)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFixedBaseTableDifferential compares table walks against
// (*big.Int).Exp over both modulus widths, several window sizes and the
// exponent shapes at the edges of the digit decomposition, and ExpMul
// against the power times a factor inside and outside [0, m).
func TestFixedBaseTableDifferential(t *testing.T) {
	for _, m := range diffModuli(t) {
		bases := []*big.Int{
			randBelow(t, m),
			new(big.Int).Add(m, randBelow(t, m)), // >= m: reduced on entry
			big.NewInt(0),
		}
		factors := []*big.Int{One, big.NewInt(0), randBelow(t, m), new(big.Int).Add(m, One), big.NewInt(-5)}
		for _, base := range bases {
			for _, w := range []uint{1, 4, DefaultWindow} {
				for _, maxBits := range []int{bits.UintSize / 2, 160} {
					tab, err := NewFixedBaseTable(base, m, maxBits, w)
					if err != nil {
						t.Fatalf("m=%d bits w=%d maxBits=%d: %v", m.BitLen(), w, maxBits, err)
					}
					bound := new(big.Int).Lsh(One, uint(maxBits))
					top := (maxBits - 1) / int(w) * int(w) // bit offset of the top digit
					full := new(big.Int).Sub(bound, One)
					exps := []*big.Int{
						big.NewInt(0),
						new(big.Int).SetBit(randBelow(t, bound), maxBits-1, 1), // exactly maxBits bits
						full,
						new(big.Int).Lsh(new(big.Int).Rsh(full, uint(top)), uint(top)), // only the top digit set
						bound, // oversized: falls back
						new(big.Int).Lsh(randBelow(t, bound), 7),
						big.NewInt(-1), // negative: falls back
						new(big.Int).Neg(randBelow(t, bound)),
					}
					for i := 0; i < 20; i++ {
						exps = append(exps, randBelow(t, bound))
					}
					for _, e := range exps {
						want := new(big.Int).Exp(base, e, m)
						got := tab.Exp(e)
						switch {
						case want == nil || got == nil:
							if want != nil || got != nil {
								t.Fatalf("m=%d bits w=%d e=%v: nil mismatch (want %v, got %v)", m.BitLen(), w, e, want, got)
							}
						case got.Cmp(want) != 0:
							t.Fatalf("m=%d bits w=%d maxBits=%d e=%v: got %v, want %v", m.BitLen(), w, maxBits, e, got, want)
						}
						if want == nil {
							continue
						}
						for _, y := range factors {
							prod := new(big.Int).Mul(want, y)
							if got := tab.ExpMul(e, y); got.Cmp(prod.Mod(prod, m)) != 0 {
								t.Fatalf("m=%d bits w=%d e=%v y=%v: ExpMul got %v, want %v", m.BitLen(), w, e, y, got, prod)
							}
						}
					}
				}
			}
		}
	}
}

func TestFixedBaseTableRejectsEvenModulus(t *testing.T) {
	for _, m := range []*big.Int{big.NewInt(2), big.NewInt(1 << 20), new(big.Int).Lsh(One, 1024)} {
		if _, err := NewFixedBaseTable(big.NewInt(3), m, 16, 4); err == nil {
			t.Errorf("NewFixedBaseTable accepted the even modulus %v", m)
		}
	}
}

// TestModulusProductDifferential compares the raw-operand Montgomery
// product against ProductMod, including the empty product, single
// values and operands outside [0, m).
func TestModulusProductDifferential(t *testing.T) {
	for _, m := range diffModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		r := randBelow(t, m)
		// Operands at or outside the edges of [0, m): the first group is
		// non-zero mod m, the second vanishes.
		nonZero := []*big.Int{
			new(big.Int).Sub(m, One),
			new(big.Int).Add(m, r),
			new(big.Int).Add(new(big.Int).Lsh(m, 3), r),
			new(big.Int).Neg(r),
		}
		zero := []*big.Int{big.NewInt(0), new(big.Int).Set(m), new(big.Int).Neg(new(big.Int).Lsh(m, 2))}
		cases := [][]*big.Int{nil, {}}
		for _, v := range append(append(append([]*big.Int(nil), nonZero...), zero...), r, One) {
			cases = append(cases, []*big.Int{v})
		}
		for _, n := range []int{2, 3, 5, 8, 17, 31, 32, 33, 100, 257, 305} {
			vals := make([]*big.Int, n)
			for i := range vals {
				vals[i] = randBelow(t, m)
			}
			mixed := append([]*big.Int(nil), vals...)
			for i, v := range nonZero {
				mixed[i%n] = v
			}
			cases = append(cases, vals, mixed)
		}
		for _, z := range zero {
			cases = append(cases, []*big.Int{r, z, r})
		}
		for _, vals := range cases {
			before := make([]*big.Int, len(vals))
			for i, v := range vals {
				before[i] = new(big.Int).Set(v)
			}
			want := ProductMod(vals, m)
			got := mo.Product(vals)
			if got.Cmp(want) != 0 {
				t.Fatalf("m=%d bits, %d values: got %v, want %v", m.BitLen(), len(vals), got, want)
			}
			for i, v := range vals {
				if v.Cmp(before[i]) != 0 {
					t.Fatalf("m=%d bits: Product mutated input %d", m.BitLen(), i)
				}
			}
		}
	}
}

// TestHotPathAllocsConstant pins the allocations of a generator power
// and a modular product: the count is a small constant, independent of
// the exponent's digit count and of the slice length.
func TestHotPathAllocsConstant(t *testing.T) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 1024, 160)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Precompute() == nil {
		t.Fatal("no table")
	}
	var expAllocs []float64
	for _, eBits := range []int{1, 40, 160} {
		e := new(big.Int).SetBit(randBelow(t, new(big.Int).Lsh(One, uint(eBits))), eBits-1, 1)
		expAllocs = append(expAllocs, testing.AllocsPerRun(20, func() { sg.Exp(e) }))
	}
	mo := sg.Mont()
	var prodAllocs []float64
	for _, n := range []int{1, 8, 64} {
		vals := make([]*big.Int, n)
		for i := range vals {
			vals[i] = randBelow(t, sg.P)
		}
		prodAllocs = append(prodAllocs, testing.AllocsPerRun(20, func() { mo.Product(vals) }))
	}
	for name, got := range map[string][]float64{"SchnorrGroup.Exp": expAllocs, "Modulus.Product": prodAllocs} {
		t.Logf("%s allocations: %v", name, got)
		for _, a := range got {
			if a != got[0] || a > 2 {
				t.Errorf("%s allocations %v: want one constant <= 2 across sizes", name, got)
			}
		}
	}
}
