package mathx

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"testing"
)

// diffWidths are the modulus widths, in words, the Montgomery paths are
// checked at: one word, small multi-word widths, the protocols' 16 words
// (1024 bits on 64-bit platforms), one past it, 32 words and the engine's
// maxModulusWords ceiling.
var diffWidths = []int{1, 2, 4, 16, 17, 32, maxModulusWords}

// diffModuli returns two odd moduli per width: a random one with its top
// bit set, and one whose top limb is all ones. The second sits just below
// R, where the CIOS accumulator overflows its k words (the c != 0 final
// subtraction) for most operands near m.
func diffModuli(t *testing.T) []*big.Int {
	t.Helper()
	var out []*big.Int
	for _, words := range diffWidths {
		r := new(big.Int).Lsh(One, uint(words*bits.UintSize))
		m := randBelow(t, r)
		m.SetBit(m, words*bits.UintSize-1, 1)
		m.SetBit(m, 0, 1)
		out = append(out, m)
		top := new(big.Int).Lsh(new(big.Int).Sub(new(big.Int).Lsh(One, bits.UintSize), One), uint((words-1)*bits.UintSize))
		ones := new(big.Int).Or(randBelow(t, r), top)
		out = append(out, ones.SetBit(ones, 0, 1))
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
// (*big.Int).Exp over every modulus width, several comb geometries and
// exponent bounds — including bounds that are not a multiple of the
// teeth and teeth lengths that are not a multiple of the blocks — and
// the exponent shapes at the edges of the strip decomposition, and
// ExpMul against the power times a factor inside and outside [0, m)
// (the factors rotate across the exponents).
func TestFixedBaseTableDifferential(t *testing.T) {
	for _, m := range diffModuli(t) {
		bases := []*big.Int{
			randBelow(t, m),
			new(big.Int).Add(m, randBelow(t, m)), // >= m: reduced on entry
			big.NewInt(0),
		}
		factors := []*big.Int{One, big.NewInt(0), randBelow(t, m), new(big.Int).Add(m, One), big.NewInt(-5)}
		for _, base := range bases {
			for _, g := range combGeometries {
				for _, maxBits := range []int{1, 61, 160} {
					tab, err := newCombTable(base, m, maxBits, g[0], g[1])
					if err != nil {
						t.Fatalf("m=%d bits h=%d v=%d maxBits=%d: %v", m.BitLen(), g[0], g[1], maxBits, err)
					}
					bound := new(big.Int).Lsh(One, uint(maxBits))
					strip := tab.b * (g[0]*g[1] - 1) // bit offset of the last strip
					full := new(big.Int).Sub(bound, One)
					exps := []*big.Int{
						big.NewInt(0),
						big.NewInt(1), // one bit
						new(big.Int).SetBit(randBelow(t, bound), maxBits-1, 1), // exactly maxBits bits
						new(big.Int).SetBit(new(big.Int), maxBits-1, 1),        // only the top bit set
						full,
						new(big.Int).Lsh(new(big.Int).Rsh(full, uint(strip)), uint(strip)), // only the last strip set
						bound, // oversized: falls back
						new(big.Int).Lsh(randBelow(t, bound), 7),
						big.NewInt(-1), // negative: falls back
						new(big.Int).Neg(randBelow(t, bound)),
					}
					for i := 0; i < 8; i++ {
						exps = append(exps, randBelow(t, bound))
					}
					for i, e := range exps {
						want := new(big.Int).Exp(base, e, m)
						got := tab.Exp(e)
						switch {
						case want == nil || got == nil:
							if want != nil || got != nil {
								t.Fatalf("m=%d bits h=%d v=%d e=%v: nil mismatch (want %v, got %v)", m.BitLen(), g[0], g[1], e, want, got)
							}
						case got.Cmp(want) != 0:
							t.Fatalf("m=%d bits h=%d v=%d maxBits=%d e=%v: got %v, want %v", m.BitLen(), g[0], g[1], maxBits, e, got, want)
						}
						if want == nil {
							continue
						}
						y := factors[i%len(factors)]
						prod := new(big.Int).Mul(want, y)
						if got := tab.ExpMul(e, y); got.Cmp(prod.Mod(prod, m)) != 0 {
							t.Fatalf("m=%d bits h=%d v=%d e=%v y=%v: ExpMul got %v, want %v", m.BitLen(), g[0], g[1], e, y, got, prod)
						}
					}
				}
			}
		}
	}
}

// montRef returns x·y·R^{-1} mod m together with the CIOS accumulator's
// value before its final subtraction, T = (x·y + Q·m)/R with
// Q = -x·y·m^{-1} mod R: the unique value the word-serial reduction
// produces. T >= R exactly when the accumulator carries out of its k
// words, the c != 0 branch of the final subtraction.
func montRef(x, y, m, r, mInv *big.Int) (want, pre *big.Int) {
	xy := new(big.Int).Mul(x, y)
	q := new(big.Int).Mul(xy, mInv)
	q.Neg(q).Mod(q, r)
	pre = q.Mul(q, m).Add(q, xy).Rsh(q, uint(r.BitLen()-1))
	return new(big.Int).Mod(pre, m), pre
}

// TestMontMulDifferential checks Mul, MulInto and SqrInto against
// big.Int at every width, including fully aliased z = x = y, operands at
// the edges of [0, m), and — on the moduli with an all-ones top limb —
// products whose accumulator carries into the final subtraction.
func TestMontMulDifferential(t *testing.T) {
	for _, m := range diffModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		k := mo.Words()
		r := new(big.Int).Lsh(One, uint(k*bits.UintSize))
		mInv := new(big.Int).ModInverse(m, r)
		var buf [maxModulusWords]big.Word
		elem := func(v *big.Int) Elem { return append(Elem(nil), mo.limbs(&buf, v)...) }
		mMinus1 := new(big.Int).Sub(m, One)
		vals := []*big.Int{big.NewInt(0), One, mMinus1, new(big.Int).Sub(m, Two)}
		for i := 0; i < 12; i++ {
			vals = append(vals, randBelow(t, m))
		}
		carries := 0
		for i, x := range vals {
			for _, y := range vals[i:] {
				want, pre := montRef(x, y, m, r, mInv)
				if pre.Cmp(r) >= 0 {
					carries++
				}
				ex, ey := elem(x), elem(y)
				if got := bigFromElem(mo.Mul(ex, ey)); got.Cmp(want) != 0 {
					t.Fatalf("%d words: Mul(%v, %v) = %v, want %v", k, x, y, got, want)
				}
				z := elem(x)
				if mo.MulInto(z, z, ey); bigFromElem(z).Cmp(want) != 0 {
					t.Fatalf("%d words: MulInto with z = x: %v, want %v", k, bigFromElem(z), want)
				}
				z = elem(y)
				if mo.MulInto(z, ex, z); bigFromElem(z).Cmp(want) != 0 {
					t.Fatalf("%d words: MulInto with z = y: %v, want %v", k, bigFromElem(z), want)
				}
				if bigFromElem(ex).Cmp(x) != 0 || bigFromElem(ey).Cmp(y) != 0 {
					t.Fatalf("%d words: Mul mutated an operand", k)
				}
			}
			sq, _ := montRef(x, x, m, r, mInv)
			z := elem(x)
			if mo.MulInto(z, z, z); bigFromElem(z).Cmp(sq) != 0 {
				t.Fatalf("%d words: MulInto with z = x = y: %v, want %v", k, bigFromElem(z), sq)
			}
			z = elem(x)
			if mo.SqrInto(z, z); bigFromElem(z).Cmp(sq) != 0 {
				t.Fatalf("%d words: SqrInto with z = x: %v, want %v", k, bigFromElem(z), sq)
			}
			if got := bigFromElem(mo.Sqr(elem(x))); got.Cmp(sq) != 0 {
				t.Fatalf("%d words: Sqr = %v, want %v", k, got, sq)
			}
		}
		if top := m.Bits()[k-1]; ^top == 0 && carries == 0 {
			t.Fatalf("%d words, all-ones top limb: no product reached the c != 0 final subtraction", k)
		}
	}
}

// TestExpElemDifferential checks the sliding-window exponentiation
// against (*big.Int).Exp at every width, for exponents on both sides of
// each window-size boundary and bases at the edges of [0, m).
func TestExpElemDifferential(t *testing.T) {
	var exps []*big.Int
	for _, eb := range []int{1, 2, 8, 9, 17, 48, 49, 160, 161, 768, 769, 1024} {
		exps = append(exps, new(big.Int).SetBit(randBelow(t, new(big.Int).Lsh(One, uint(eb))), eb-1, 1))
	}
	exps = append(exps, big.NewInt(0), big.NewInt(65537), new(big.Int).Sub(new(big.Int).Lsh(One, 160), One))
	for _, m := range diffModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []*big.Int{randBelow(t, m), big.NewInt(0), One, new(big.Int).Sub(m, One)} {
			be := mo.ToMont(base)
			before := append(Elem(nil), be...)
			for _, e := range exps {
				want := new(big.Int).Exp(base, e, m)
				if got := mo.FromMont(mo.ExpElem(be, e)); got.Cmp(want) != 0 {
					t.Fatalf("%d words: %v^%v: got %v, want %v", mo.Words(), base, e, got, want)
				}
			}
			for i := range be {
				if be[i] != before[i] {
					t.Fatalf("%d words: ExpElem mutated its base", mo.Words())
				}
			}
		}
	}
}

func TestFixedBaseTableRejectsEvenModulus(t *testing.T) {
	for _, m := range []*big.Int{big.NewInt(2), big.NewInt(1 << 20), new(big.Int).Lsh(One, 1024)} {
		if _, err := NewFixedBaseTable(big.NewInt(3), m, 16); err == nil {
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
