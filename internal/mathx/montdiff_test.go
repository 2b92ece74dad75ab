package mathx

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"math/big"
	"math/bits"
	"slices"
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

func randUint64(t *testing.T) uint64 {
	t.Helper()
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[:])
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
// (the factors rotate across the exponents), on both walks where the
// table has two (tableBackends).
func TestFixedBaseTableDifferential(t *testing.T) {
	for _, m := range diffModuli(t) {
		mo := mustModulus(t, m)
		bases := []*big.Int{
			randBelow(t, m),
			new(big.Int).Add(m, randBelow(t, m)), // >= m: reduced on entry
			big.NewInt(0),
		}
		factors := []*big.Int{One, big.NewInt(0), randBelow(t, m), new(big.Int).Add(m, One), big.NewInt(-5)}
		for _, base := range bases {
			for _, g := range combGeometries {
				for _, maxBits := range []int{1, 61, 160} {
					tab, err := newCombTable(base, mo, maxBits, g[0], g[1])
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
						for name, tab := range tableBackends(tab) {
							got := tab.Exp(e)
							switch {
							case want == nil || got == nil:
								if want != nil || got != nil {
									t.Fatalf("%s, m=%d bits h=%d v=%d e=%v: nil mismatch (want %v, got %v)", name, m.BitLen(), g[0], g[1], e, want, got)
								}
							case got.Cmp(want) != 0:
								t.Fatalf("%s, m=%d bits h=%d v=%d maxBits=%d e=%v: got %v, want %v", name, m.BitLen(), g[0], g[1], maxBits, e, got, want)
							}
							if want == nil {
								continue
							}
							y := factors[i%len(factors)]
							prod := new(big.Int).Mul(want, y)
							if got := tab.ExpMul(e, y); got.Cmp(prod.Mod(prod, m)) != 0 {
								t.Fatalf("%s, m=%d bits h=%d v=%d e=%v y=%v: ExpMul got %v, want %v", name, m.BitLen(), g[0], g[1], e, y, got, prod)
							}
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

// belowR returns the 16-word moduli just below R = 2^1024: R - 1 and
// R - 3, all ones in every limb but the lowest.
func belowR() []*big.Int {
	r := new(big.Int).Lsh(One, 16*bits.UintSize)
	return []*big.Int{new(big.Int).Sub(r, One), new(big.Int).Sub(r, big.NewInt(3))}
}

// withGeneric returns mo, a copy of it without the radix-2^52 lane
// where mo has one, and last a copy that takes no assembly kernel, so a
// test runs the lane, montMul1024 (at 16 words on a CPU with ADX and
// BMI2) and montMulGeneric on the same operands.
func withGeneric(mo *Modulus) []*Modulus {
	out := []*Modulus{mo}
	if mo.lane {
		out = append(out, WithoutLane(mo))
	}
	generic := WithoutLane(mo)
	generic.asm = false
	return append(out, generic)
}

// engineName names the multiplier a Modulus runs, and the lane where it
// has one, for failure messages.
func engineName(mo *Modulus) string {
	name := "montMulGeneric"
	if mo.asm {
		name = "montMul1024"
	}
	if mo.lane {
		name = "lane"
	}
	return name
}

// TestMontMulDifferential checks Mul and MulInto against big.Int at
// every width, including fully aliased z = x = y, operands at the edges
// of [0, m), and — on the moduli with an all-ones top limb — montMul
// products whose accumulator carries into the final subtraction. At 16
// words the radix-2^52 lane (where the CPU runs it), the assembly
// kernel and the generic loop all run (withGeneric) and must agree with
// big.Int on the same operands, also with z aliasing x, y or both, and
// on the 16-word moduli just below R. An operand is an Elem whose limbs
// hold v, the image of v·R^{-1}, so that montMul sees v itself; a
// product of two leaves x·y·R^{-2} behind FromMont.
func TestMontMulDifferential(t *testing.T) {
	for _, m := range append(diffModuli(t), belowR()...) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		k := len(m.Bits())
		r := new(big.Int).Lsh(One, uint(k*bits.UintSize))
		mInv := new(big.Int).ModInverse(m, r)
		mMinus1 := new(big.Int).Sub(m, One)
		vals := []*big.Int{big.NewInt(0), One, mMinus1, new(big.Int).Sub(m, Two)}
		for i := 0; i < 12; i++ {
			vals = append(vals, randBelow(t, m))
		}
		if want := k == 16 && hasMontMul1024; mo.asm != want {
			t.Fatalf("%d words: kernel chosen = %v, want %v", k, mo.asm, want)
		}
		carries := 0
		for _, mm := range withGeneric(mo) {
			var buf [maxModulusWords]big.Word
			elem := func(v *big.Int) Elem {
				e := mm.newElem()
				copy(e.limbs(), mm.limbs(&buf, v))
				return e
			}
			rInv := new(big.Int).ModInverse(new(big.Int).Lsh(One, uint(mm.k)*mm.limbBits), m)
			prod := func(x, y *big.Int) *big.Int {
				v := new(big.Int).Mul(x, y)
				v.Mul(v, rInv).Mul(v, rInv)
				return v.Mod(v, m)
			}
			for i, x := range vals {
				for _, y := range vals[i:] {
					if _, pre := montRef(x, y, m, r, mInv); !mm.lane && pre.Cmp(r) >= 0 {
						carries++
					}
					want := prod(x, y)
					ex, ey := elem(x), elem(y)
					if got := mm.FromMont(mm.Mul(ex, ey)); got.Cmp(want) != 0 {
						t.Fatalf("%d words: %s(%v, %v) = %v, want %v", k, engineName(mm), x, y, got, want)
					}
					z := elem(x)
					if mm.MulInto(z, z, ey); mm.FromMont(z).Cmp(want) != 0 {
						t.Fatalf("%d words: %s with z = x: %v, want %v", k, engineName(mm), mm.FromMont(z), want)
					}
					z = elem(y)
					if mm.MulInto(z, ex, z); mm.FromMont(z).Cmp(want) != 0 {
						t.Fatalf("%d words: %s with z = y: %v, want %v", k, engineName(mm), mm.FromMont(z), want)
					}
					if !slices.Equal(ex.limbs(), elem(x).limbs()) || !slices.Equal(ey.limbs(), elem(y).limbs()) {
						t.Fatalf("%d words: %s: Mul mutated an operand", k, engineName(mm))
					}
				}
				z := elem(x)
				if mm.MulInto(z, z, z); mm.FromMont(z).Cmp(prod(x, x)) != 0 {
					t.Fatalf("%d words: %s with z = x = y: %v, want %v", k, engineName(mm), mm.FromMont(z), prod(x, x))
				}
			}
		}
		if top := m.Bits()[k-1]; ^top == 0 && carries == 0 {
			t.Fatalf("%d words, all-ones top limb: no product reached the c != 0 final subtraction", k)
		}
	}
}

// TestExpElemDifferential checks the sliding-window exponentiation
// against (*big.Int).Exp at every width, for exponents on both sides of
// each window-size boundary and bases at the edges of [0, m). At 16
// words the radix-2^52 lane (where the CPU runs it), the assembly kernel
// and the generic loop all run the same powers (withGeneric).
func TestExpElemDifferential(t *testing.T) {
	var exps []*big.Int
	for _, eb := range []int{1, 2, 8, 9, 17, 48, 49, 160, 161, 768, 769, 1024} {
		exps = append(exps, new(big.Int).SetBit(randBelow(t, new(big.Int).Lsh(One, uint(eb))), eb-1, 1))
	}
	exps = append(exps, big.NewInt(0), big.NewInt(65537), new(big.Int).Sub(new(big.Int).Lsh(One, 160), One))
	for _, m := range append(diffModuli(t), belowR()...) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		k := len(m.Bits())
		for _, base := range []*big.Int{randBelow(t, m), big.NewInt(0), One, new(big.Int).Sub(m, One)} {
			for _, mm := range withGeneric(mo) {
				be := mm.ToMont(base)
				before := slices.Clone(be.limbs())
				for _, e := range exps {
					want := new(big.Int).Exp(base, e, m)
					if got := mm.FromMont(mm.ExpElem(be, e)); got.Cmp(want) != 0 {
						t.Fatalf("%d words, %s: %v^%v: got %v, want %v", k, engineName(mm), base, e, got, want)
					}
				}
				if !slices.Equal(be.limbs(), before) {
					t.Fatalf("%d words, %s: ExpElem mutated its base", k, engineName(mm))
				}
			}
		}
	}
}

// TestFixedBaseTableRejectsEvenModulus checks that no table is built over
// an even modulus: NewModulus refuses it, and a table refuses the nil
// Modulus that leaves.
func TestFixedBaseTableRejectsEvenModulus(t *testing.T) {
	for _, m := range []*big.Int{big.NewInt(2), big.NewInt(1 << 20), new(big.Int).Lsh(One, 1024)} {
		mo, err := NewModulus(m)
		if err == nil {
			t.Errorf("NewModulus accepted the even modulus %v", m)
		}
		if _, err := NewFixedBaseTable(big.NewInt(3), mo, 16); err == nil {
			t.Errorf("NewFixedBaseTable accepted the even modulus %v", m)
		}
	}
}

// TestModulusProductDifferential compares the raw-operand Montgomery
// product against ProductMod, including the empty product, single
// values, odd and even counts and operands outside [0, m), on the
// radix-2^52 lane (at 16 words, where the CPU runs it) and on montMul.
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
			for name, mo := range chainBackends(mo) {
				// The packed forms take canonical residues.
				flat := packAll(mo, vals)
				if got := mo.Product(vals); got.Cmp(want) != 0 {
					t.Fatalf("%s, m=%d bits, %d values: got %v, want %v", name, m.BitLen(), len(vals), got, want)
				}
				if got := mo.ProductOf(flat); got.Cmp(want) != 0 {
					t.Fatalf("%s, m=%d bits, %d values: ProductOf %v, want %v", name, m.BitLen(), len(vals), got, want)
				}
				if got := mo.FromMont(mo.ProductMontOf(flat)); got.Cmp(want) != 0 {
					t.Fatalf("%s, m=%d bits, %d values: ProductMontOf %v, want %v", name, m.BitLen(), len(vals), got, want)
				}
			}
			for i, v := range vals {
				if v.Cmp(before[i]) != 0 {
					t.Fatalf("m=%d bits: Product mutated input %d", m.BitLen(), i)
				}
			}
		}
	}
}

// prefixRef returns PrefixProducts' two results from big.Int for the
// ring xs starting at slot i: the Horner product Π_{t<n-1} S_t with S_t =
// X_i···X_{i+t}, and whether Π X_j ≡ 1 (Lemma 1).
func prefixRef(m *big.Int, xs []*big.Int, i int) (horner *big.Int, lemma1 bool) {
	n := len(xs)
	s, horner := big.NewInt(1), big.NewInt(1)
	for t := 0; t < n-1; t++ {
		s.Mod(s.Mul(s, xs[(i+t)%n]), m)
		horner.Mod(horner.Mul(horner, s), m)
	}
	return horner, ProductMod(xs, m).Cmp(One) == 0
}

// packAll sets a Packed of mo's to vals mod m, zero included, which
// Load refuses.
func packAll(mo *Modulus, vals []*big.Int) Packed {
	p := mo.NewPacked(len(vals))
	var buf [maxModulusWords]big.Word
	for i, v := range vals {
		copy(p.slot(i), mo.limbs(&buf, v))
	}
	return p
}

// checkPrefixProducts runs PrefixProducts from slot i on every backend,
// each over xs packed in its own representation, and compares the
// Horner product and the Lemma 1 flag with big.Int.
func checkPrefixProducts(t testing.TB, mo *Modulus, xs []*big.Int, i int) (lemma1 bool) {
	t.Helper()
	want, lemma1 := prefixRef(mo.m, xs, i)
	for name, mo := range chainBackends(mo) {
		got, ok := mo.PrefixProducts(packAll(mo, xs), i)
		if mo.FromMont(got).Cmp(want) != 0 || ok != lemma1 {
			t.Fatalf("%s, m=%d bits, n=%d, i=%d: Horner product %x, Lemma 1 %v; want %x, %v",
				name, mo.m.BitLen(), len(xs), i, mo.FromMont(got), ok, want, lemma1)
		}
	}
	return lemma1
}

// TestPrefixProductsDifferential checks the chain under Lemma 1 and
// equation (3) against big.Int for every ring size from 1 to 33 and
// every starting position, on the radix-2^52 lane and on montMul, at 4,
// 16 and 17 words. Three rings per size: an honest one (Π X_j = 1, with
// 1 and m - 1 among its values), which must pass Lemma 1; the same ring
// with one X perturbed, which must fail it; and random residues with 0,
// 1 and m - 1.
func TestPrefixProductsDifferential(t *testing.T) {
	for _, m := range diffModuli(t)[4:10] {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 33; n++ {
			honest := make([]*big.Int, n)
			for j := range honest {
				honest[j] = randBelow(t, m)
				for new(big.Int).GCD(nil, nil, honest[j], m).Cmp(One) != 0 { // a unit: the moduli are composite
					honest[j] = randBelow(t, m)
				}
			}
			if n >= 5 {
				copy(honest[n-3:], []*big.Int{new(big.Int).Sub(m, One), One})
			}
			honest[n-1] = new(big.Int).ModInverse(ProductMod(honest[:n-1], m), m)
			perturbed := slices.Clone(honest)
			perturbed[n/2] = new(big.Int).Mod(new(big.Int).Add(honest[n/2], One), m)
			random := make([]*big.Int, n)
			for j := range random {
				random[j] = randBelow(t, m)
			}
			if n >= 5 {
				copy(random[n-3:], []*big.Int{new(big.Int).Sub(m, One), One, big.NewInt(0)})
			}
			for ring, xs := range map[string][]*big.Int{"honest": honest, "perturbed": perturbed, "random": random} {
				for i := range n {
					lemma1 := checkPrefixProducts(t, mo, xs, i)
					if want := ring == "honest"; ring != "random" && lemma1 != want {
						t.Fatalf("m=%d bits, n=%d: the %s ring has Lemma 1 %v", m.BitLen(), n, ring, lemma1)
					}
				}
			}
		}
	}
}

// TestLoadBytes checks the slot decoder on both representations against
// big.Int.SetBytes and its (0, m) range check at the edges: zero, 1,
// m - 1, m, m + 1, a value one word too wide, and encodings with leading
// zero bytes, over a slot filled with ones; a refused value leaves the
// slot empty.
func TestLoadBytes(t *testing.T) {
	for _, m := range append(diffModuli(t), kernelModuli(t)...) {
		wide := new(big.Int).Lsh(One, uint(len(m.Bits())*bits.UintSize))
		cases := []*big.Int{big.NewInt(0), One, randBelow(t, m), new(big.Int).Sub(m, One), m, new(big.Int).Add(m, One), wide}
		for name, mo := range chainBackends(mustModulus(t, m)) {
			p := mo.NewPacked(2)
			for _, v := range cases {
				want := v.Sign() > 0 && v.Cmp(m) < 0
				for _, pad := range []int{0, 1, 9} {
					for i := range p.w {
						p.w[i] = ^big.Word(0) // the decoder must overwrite every limb
					}
					b := append(make([]byte, pad), v.Bytes()...)
					if ok := p.LoadBytes(1, b); ok != want || p.InRange(1) != want {
						t.Fatalf("%s, m=%d bits, v=%v, %d zero bytes: in range %v, want %v", name, m.BitLen(), v, pad, ok, want)
					}
					if got := mo.bigOf(p.slot(1)); want && got.Cmp(v) != 0 || !want && got.Sign() != 0 {
						t.Fatalf("%s, m=%d bits, %d zero bytes: decoded %v, want %v", name, m.BitLen(), pad, got, v)
					}
					if got := p.Bytes(1); !bytes.Equal(got, slotBytes(v, want)) {
						t.Fatalf("%s, m=%d bits, v=%v, %d zero bytes: Bytes = %x", name, m.BitLen(), v, pad, got)
					}
				}
				if ok := p.Load(0, v); ok != want || p.InRange(0) != want {
					t.Fatalf("%s, m=%d bits, v=%v: Load in range %v, want %v", name, m.BitLen(), v, ok, want)
				}
			}
		}
	}
}

// TestRepresentationRoundTrip takes values at the edges — 0, 1, m - 1,
// m, 2^1024 - 1 and encodings of 129 and 130 bytes — through both
// representations of 1024-bit moduli: FromMont(ToMont(v)) is v mod m,
// and Load, LoadBytes and InRange accept exactly the values in (0, m),
// which the slot, FromMont(ToMont) of it and Bytes then read back; a
// refused value leaves the slot empty, and Bytes gives none.
func TestRepresentationRoundTrip(t *testing.T) {
	over := new(big.Int).Lsh(One, 1024)
	for _, m := range kernelModuli(t) {
		vals := []*big.Int{big.NewInt(0), One, new(big.Int).Sub(m, One), m, new(big.Int).Sub(over, One), over, new(big.Int).Add(over, m)}
		for name, mo := range chainBackends(mustModulus(t, m)) {
			p := mo.NewPacked(1)
			for _, v := range vals {
				if got := mo.FromMont(mo.ToMont(v)); got.Cmp(new(big.Int).Mod(v, m)) != 0 {
					t.Fatalf("%s, m=%x: FromMont(ToMont(%x)) = %x", name, m, v, got)
				}
				want := v.Sign() > 0 && v.Cmp(m) < 0
				loads := map[string]func() bool{
					"Load":             func() bool { return p.Load(0, v) },
					"LoadBytes":        func() bool { return p.LoadBytes(0, v.Bytes()) },
					"LoadBytes padded": func() bool { return p.LoadBytes(0, v.FillBytes(make([]byte, 130))) },
				}
				for load, f := range loads {
					if ok := f(); ok != want || p.InRange(0) != want {
						t.Fatalf("%s, m=%x: %s(%x) = %v, in range %v, want %v", name, m, load, v, ok, p.InRange(0), want)
					}
					if got := mo.bigOf(p.slot(0)); want && (got.Cmp(v) != 0 || mo.FromMont(p.ToMont(0)).Cmp(v) != 0) || !want && got.Sign() != 0 {
						t.Fatalf("%s, m=%x: %s(%x) reads back %x", name, m, load, v, got)
					}
					if got := p.Bytes(0); !bytes.Equal(got, slotBytes(v, want)) {
						t.Fatalf("%s, m=%x: %s(%x) gives bytes %x", name, m, load, v, got)
					}
				}
			}
		}
	}
}

// FuzzLoadBytes decodes a byte string, as a peer sends it, into a slot of
// an odd 1024-bit modulus built from the fuzz input, in both
// representations: each must accept exactly when big.Int.SetBytes gives
// a value in (0, m), and then hold that value, as FromMont(ToMont) of
// the slot and Bytes read it back; a refused slot gives no bytes.
func FuzzLoadBytes(f *testing.F) {
	ones := make([]byte, 128) // m = 2^1024 - 1
	for i := range ones {
		ones[i] = 0xff
	}
	m := new(big.Int).SetBytes(ones[:100])
	f.Add(ones[:100], m.SetBit(m, 1023, 1).Bytes())           // m itself
	f.Add(ones, ones)                                         // 2^1024 - 1, which is m
	f.Add([]byte{1}, append(make([]byte, 3), ones...))        // leading zeros; 2^1024 - 1 above m = 2^1023 + 1
	f.Add(ones, append([]byte{1}, make([]byte, 128)...))      // 129 bytes
	f.Add([]byte{1}, append(make([]byte, 40), ones[:127]...)) // leading zeros, in range
	f.Add(ones[:64], []byte{})                                // zero
	f.Fuzz(func(t *testing.T, mb, b []byte) {
		if len(mb) > 128 {
			mb = mb[:128]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 1023, 1).SetBit(m, 0, 1)
		v := new(big.Int).SetBytes(b)
		want := v.Sign() > 0 && v.Cmp(m) < 0
		for name, mo := range chainBackends(mustModulus(t, m)) {
			p := mo.NewPacked(1)
			if ok := p.LoadBytes(0, b); ok != want {
				t.Fatalf("%s, m=%x: LoadBytes(%x) = %v, want %v", name, m, b, ok, want)
			}
			if got := p.Bytes(0); !bytes.Equal(got, slotBytes(v, want)) {
				t.Fatalf("%s, m=%x: LoadBytes(%x) gives bytes %x", name, m, b, got)
			}
			if !want {
				continue
			}
			if r := mo.FromMont(p.ToMont(0)); r.Cmp(v) != 0 {
				t.Fatalf("%s, m=%x: FromMont(ToMont) of %x = %x", name, m, v, r)
			}
		}
	})
}

// slotBytes returns the bytes Packed.Bytes gives for a slot loaded
// with v: v's minimal big-endian bytes when the load accepted it, else
// none.
func slotBytes(v *big.Int, accepted bool) []byte {
	if !accepted {
		return nil
	}
	return v.Bytes()
}

// TestRPow checks the cached R powers against big.Int, for negative,
// zero and positive exponents, on two moduli (so the caches stay apart),
// and that a repeated call returns the cached limbs.
func TestRPow(t *testing.T) {
	for _, m := range diffModuli(t)[:2] {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		r := new(big.Int).Lsh(One, uint(mo.k)*mo.limbBits)
		for _, e := range []int{-31, -1, 0, 1, 2, 33, 497, 1000} {
			want := new(big.Int).Exp(r, big.NewInt(int64(max(e, -e))), m)
			if e < 0 {
				want.ModInverse(want, m)
			}
			got := mo.rPow(e)
			if mo.bigOf(got).Cmp(want) != 0 {
				t.Fatalf("m=%d bits: rPow(%d) = %v, want %v", m.BitLen(), e, got, want)
			}
			if again := mo.rPow(e); &again[0] != &got[0] {
				t.Fatalf("m=%d bits: rPow(%d) was recomputed", m.BitLen(), e)
			}
		}
	}
}

// FuzzMontMul1024 builds an odd 1024-bit modulus and two residues from
// the fuzz input and checks the 16-word Montgomery product — the
// assembly kernel where the CPU runs it — and the generic loop against
// x·y·R^{-1} mod m from big.Int.
func FuzzMontMul1024(f *testing.F) {
	ones := make([]byte, 128) // R - 1, all ones in every limb
	for i := range ones {
		ones[i] = 0xff
	}
	mMinus1 := append(ones[:127:127], 0xfe) // R - 2 = m - 1 for m = R - 1
	f.Add(ones, mMinus1, mMinus1)
	f.Add(ones, []byte{1}, mMinus1)
	f.Add([]byte{1}, ones, ones)     // m = 2^1023 + 1
	f.Add(ones[:64], []byte{}, ones) // x = 0; m = 2^1023 + 2^512 - 1
	f.Fuzz(func(t *testing.T, mb, xb, yb []byte) {
		if len(mb) > 128 {
			mb = mb[:128]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 1023, 1).SetBit(m, 0, 1)
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		x := new(big.Int).Mod(new(big.Int).SetBytes(xb), m)
		y := new(big.Int).Mod(new(big.Int).SetBytes(yb), m)
		r := new(big.Int).Lsh(One, 1024)
		want, _ := montRef(x, y, m, r, new(big.Int).ModInverse(m, r))
		var xbuf, ybuf [maxModulusWords]big.Word
		ex, ey := WithoutLane(mo).limbs(&xbuf, x), WithoutLane(mo).limbs(&ybuf, y)
		for _, mm := range withGeneric(mo) {
			if mm.lane {
				continue // not montMul
			}
			z := make([]big.Word, mm.k)
			if mm.mul(z, ex, ey); mm.bigOf(z).Cmp(want) != 0 {
				t.Fatalf("m=%x: %s(%x, %x) = %x, want %x", m, engineName(mm), x, y, mm.bigOf(z), want)
			}
		}
	})
}

// limbs52 splits a value below 2^1040 into 20 limbs of 52 bits.
func limbs52(v *big.Int) *[20]big.Word {
	var x [20]big.Word
	t := new(big.Int).Set(v)
	mask := new(big.Int).SetUint64(mask52)
	for j := range x {
		x[j] = big.Word(new(big.Int).And(t, mask).Uint64())
		t.Rsh(t, 52)
	}
	return &x
}

// bigFrom52 reads 20 limbs back, failing the test on a limb of more
// than 52 bits.
func bigFrom52(t testing.TB, x *[20]big.Word) *big.Int {
	t.Helper()
	v := new(big.Int)
	for j := len(x) - 1; j >= 0; j-- {
		if uint64(x[j]) > mask52 {
			t.Fatalf("limb %d = %#x exceeds 52 bits", j, x[j])
		}
		v.Lsh(v, 52).Or(v, new(big.Int).SetUint64(uint64(x[j])))
	}
	return v
}

// checkAMM52 runs one amm52x20x2 call on (x1, y1) and (x2, y2), all
// below 2m, and compares both lanes with the exact almost-Montgomery
// product (x·y + Q·m)/2^1040 from big.Int, which must be below 2m.
func checkAMM52(t testing.TB, mo *Modulus, x1, y1, x2, y2 *big.Int) {
	t.Helper()
	m := mo.m
	r := new(big.Int).Lsh(One, 1040)
	mInv := new(big.Int).ModInverse(m, r)
	var z1, z2 [20]big.Word
	amm52x20x2(&z1, limbs52(x1), limbs52(y1), &z2, limbs52(x2), limbs52(y2), (*[20]big.Word)(mo.words), uint64(mo.n0))
	twoM := new(big.Int).Lsh(m, 1)
	for _, c := range []struct {
		z    *[20]big.Word
		x, y *big.Int
	}{{&z1, x1, y1}, {&z2, x2, y2}} {
		_, want := montRef(c.x, c.y, m, r, mInv)
		if got := bigFrom52(t, c.z); got.Cmp(want) != 0 || got.Cmp(twoM) >= 0 {
			t.Fatalf("m=%x: amm52x20x2(%x, %x) = %x, want %x below 2m", m, c.x, c.y, got, want)
		}
	}
}

// norm52Ref is norm52x2 on big.Int: x, 20 limbs of 64 bits, mod 2^1040
// in limbs of 52 bits.
func norm52Ref(x *[20]uint64) [20]uint64 {
	v := new(big.Int)
	for j := len(x) - 1; j >= 0; j-- {
		v.Lsh(v, 52).Add(v, new(big.Int).SetUint64(x[j]))
	}
	var r [20]uint64
	for j, l := range limbs52(v.And(v, new(big.Int).Sub(new(big.Int).Lsh(One, 1040), One))) {
		r[j] = uint64(l)
	}
	return r
}

// checkNorm52 runs norm52x2 on x1 and x2, once into fresh results and
// once in place, and compares both lanes with norm52Ref.
func checkNorm52(t *testing.T, x1, x2 [20]uint64) {
	t.Helper()
	want1, want2 := norm52Ref(&x1), norm52Ref(&x2)
	var r1, r2 [20]uint64
	norm52x2(&r1, &x1, &r2, &x2)
	if r1 != want1 || r2 != want2 {
		t.Fatalf("norm52x2(%x, %x) = (%x, %x), want (%x, %x)", x1, x2, r1, r2, want1, want2)
	}
	in1, in2 := x1, x2
	if norm52x2(&x1, &x1, &x2, &x2); x1 != want1 || x2 != want2 {
		t.Fatalf("norm52x2 in place (%x, %x) = (%x, %x), want (%x, %x)", in1, in2, x1, x2, want1, want2)
	}
}

// TestNorm52x2 checks the kernel's carry pass against big.Int on limbs
// that reach its second step, which random products reach with a chance
// of about 2^-45 per limb: a limb that carries one in from the first
// step (2^52 - 1 with a carry from below) followed by a run of limbs of
// 2^52 - 1 that pass it on, at every start and length, so that runs
// cross limbs 7 to 8, 15 to 16 and 19 out of the value; limbs of 64 bits
// whose first-step carries cross the same boundaries; and random mixes
// of such limbs.
func TestNorm52x2(t *testing.T) {
	if !hasAMM52 {
		t.Skip("norm52x2 needs AVX512F and AVX512VL with OS support")
	}
	const ones = uint64(mask52)
	random52 := func() [20]uint64 {
		var x [20]uint64
		for j := range x {
			x[j] = randUint64(t) & (mask52 >> 1) // never 2^52 - 1
		}
		return x
	}
	for g := 1; g < 20; g++ {
		for end := g; end < 20; end++ {
			x := random52()
			x[g-1] |= 1 << 52 // the first step carries one into limb g
			for j := g; j <= end; j++ {
				x[j] = ones
			}
			y := random52()
			y[g-1] = ones << 12 // carries 2^12 - 1 into limb g
			y[g] = ones
			for j := g + 1; j <= end; j++ {
				y[j] = ones
			}
			checkNorm52(t, x, y)
		}
	}
	for _, b := range []int{7, 15, 19} {
		var x, y [20]uint64
		for j := range x {
			x[j], y[j] = ^uint64(0), ones
		}
		y[b] = ^uint64(0) // its carry makes limb b+1 take one
		checkNorm52(t, x, y)
	}
	pick := []func() uint64{
		func() uint64 { return ones },
		func() uint64 { return ones | randUint64(t)<<52 },
		func() uint64 { return randUint64(t) },
		func() uint64 { return randUint64(t) & mask52 },
		func() uint64 { return 0 },
		func() uint64 { return 1 << 52 },
	}
	for range 2000 {
		var x, y [20]uint64
		for j := range x {
			x[j] = pick[randUint64(t)%uint64(len(pick))]()
			y[j] = pick[randUint64(t)%uint64(len(pick))]()
		}
		checkNorm52(t, x, y)
	}
}

// kernelModuli returns 1024-bit moduli for the radix-2^52 kernel: random
// ones with the top bit set and the two just below 2^1024.
func kernelModuli(t *testing.T) []*big.Int {
	out := belowR()
	for i := 0; i < 4; i++ {
		m := randBelow(t, new(big.Int).Lsh(One, 1024))
		out = append(out, m.SetBit(m, 1023, 1).SetBit(m, 0, 1))
	}
	return out
}

// TestAMM52x20x2Differential checks both lanes of the radix-2^52 kernel
// against big.Int for operands across [0, 2m): 0, 1, 2m-1 and random
// values, each lane on different operands, and fully aliased r = a = b
// in both lanes at once.
func TestAMM52x20x2Differential(t *testing.T) {
	if !hasAMM52 {
		t.Skip("amm52x20x2 needs AVX512F, AVX512VL, AVX512IFMA and BMI2 with OS support")
	}
	for _, m := range kernelModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		twoM := new(big.Int).Lsh(m, 1)
		vals := []*big.Int{big.NewInt(0), One, new(big.Int).Sub(twoM, One), new(big.Int).Sub(m, One), new(big.Int).Set(m)}
		for i := 0; i < 8; i++ {
			vals = append(vals, randBelow(t, twoM))
		}
		for i, x := range vals {
			for j, y := range vals {
				checkAMM52(t, mo, x, y, vals[(i+j)%len(vals)], vals[(i+1)%len(vals)])
			}
			r := new(big.Int).Lsh(One, 1040)
			_, want := montRef(x, x, m, r, new(big.Int).ModInverse(m, r))
			var z pair52
			z[0], z[1] = *limbs52(x), *limbs52(x)
			mo.mulPair(&z, &z, &z)
			for l := range z {
				if got := bigFrom52(t, &z[l]); got.Cmp(want) != 0 {
					t.Fatalf("m=%x: lane %d with r = a = b: %x, want %x", m, l, got, want)
				}
			}
		}
	}
}

// mustScalar returns v as a Scalar below q.
func mustScalar(t testing.TB, q, v *big.Int) Scalar {
	t.Helper()
	s, err := NewScalar(q, v)
	if err != nil {
		t.Fatalf("NewScalar(%v, %v): %v", q, v, err)
	}
	return s
}

// checkExpPair runs ExpPair and ExpFixed on (b1, e1) and (b2, e2),
// exponents below the order q, on every backend with its own images of
// the bases (expPairLane where the CPU runs it, expPairMont always), and
// compares every result with big.Int.Exp.
func checkExpPair(t testing.TB, mo *Modulus, q, b1, e1, b2, e2 *big.Int) {
	t.Helper()
	m := mo.m
	want1, want2 := new(big.Int).Exp(b1, e1, m), new(big.Int).Exp(b2, e2, m)
	s1, s2 := mustScalar(t, q, e1), mustScalar(t, q, e2)
	for name, mo := range chainBackends(mo) {
		m1, m2 := mo.ToMont(b1), mo.ToMont(b2)
		before1, before2 := slices.Clone(m1.limbs()), slices.Clone(m2.limbs())
		check := func(fn string, got1, got2 Elem) {
			t.Helper()
			if g1, g2 := mo.FromMont(got1), mo.FromMont(got2); g1.Cmp(want1) != 0 || g2.Cmp(want2) != 0 {
				t.Fatalf("%d words, %s %s, %d-bit order: (%v^%v, %v^%v) = (%x, %x), want (%x, %x)",
					len(m.Bits()), name, fn, q.BitLen(), b1, e1, b2, e2, g1, g2, want1, want2)
			}
		}
		got1, got2 := mo.ExpPair(m1, s1, m2, s2)
		check("ExpPair", got1, got2)
		check("ExpFixed", mo.ExpFixed(m1, s1), mo.ExpFixed(m2, s2))
		if !slices.Equal(m1.limbs(), before1) || !slices.Equal(m2.limbs(), before2) {
			t.Fatalf("%d words, %s: a fixed-window power mutated its base", len(m.Bits()), name)
		}
	}
}

// TestExpPairDifferential checks ExpPair on both backends against
// big.Int.Exp per lane at every width, for orders q of 1 to 1024 bits:
// exponents 0, 1, 15, 16, q - 2, q - 1 and random values below q,
// distinct per lane, with distinct bases and with b1 = b2, bases 0, 1,
// m - 1 and random, and the ring's pair (r, q - r) through Neg.
func TestExpPairDifferential(t *testing.T) {
	for _, m := range append(diffModuli(t), belowR()...) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		k := len(m.Bits())
		if want := k == 16 && hasAMM52; mo.lane != want {
			t.Fatalf("%d words: radix-2^52 lane = %v, want %v", k, mo.lane, want)
		}
		bases := []*big.Int{randBelow(t, m), big.NewInt(0), One, new(big.Int).Sub(m, One)}
		orders := []int{1, 4, 5, 160}
		if k <= 16 {
			orders = append(orders, 1024)
		}
		for _, bits := range orders {
			q := new(big.Int).SetBit(randBelow(t, new(big.Int).Lsh(One, uint(bits))), bits-1, 1)
			var exps []*big.Int
			for _, e := range []*big.Int{big.NewInt(0), One, big.NewInt(15), big.NewInt(16), new(big.Int).Sub(q, Two), new(big.Int).Sub(q, One)} {
				if e.Sign() >= 0 && e.Cmp(q) < 0 {
					exps = append(exps, e)
				}
			}
			exps = append(exps, randBelow(t, q), randBelow(t, q))
			for bi, b1 := range bases {
				b2 := bases[(bi+1)%len(bases)]
				for ei, e1 := range exps {
					e2 := exps[(ei+1)%len(exps)]
					checkExpPair(t, mo, q, b1, e1, b2, e2)
					checkExpPair(t, mo, q, b1, e1, b1, e2)
					r := mustScalar(t, q, e1)
					want := new(big.Int).Exp(b2, new(big.Int).Sub(q, e1), m)
					for name, mo := range chainBackends(mo) {
						if _, got := mo.ExpPair(mo.ToMont(b1), r, mo.ToMont(b2), r.Neg()); mo.FromMont(got).Cmp(want) != 0 {
							t.Fatalf("%d words, %s, %d-bit order: %v^(q-%v) = %x, want %x", k, name, bits, b2, e1, mo.FromMont(got), want)
						}
					}
				}
			}
		}
	}
}

// TestSel52x2 checks the assembly table select against direct indexing
// for every pair of digits in 0…15 on a table of random limbs, and that a
// digit past the table selects zero.
func TestSel52x2(t *testing.T) {
	if !hasAMM52 {
		t.Skip("sel52x2 needs AVX512F and AVX512VL with OS support")
	}
	var tab [fixedEntries]pair52
	for i := range tab {
		for l := range tab[i] {
			tab[i][l] = *limbs52(randBelow(t, new(big.Int).Lsh(One, 1040)))
		}
	}
	for d1 := range uint64(fixedEntries + 1) {
		for d2 := range uint64(fixedEntries + 1) {
			var got, want pair52
			for i := range got {
				got[i] = tab[(d1+d2)%fixedEntries][0] // the select must overwrite every limb
			}
			if d1 < fixedEntries {
				want[0] = tab[d1][0]
			}
			if d2 < fixedEntries {
				want[1] = tab[d2][1]
			}
			if sel52x2(&got, &tab[0], fixedEntries, d1, d2); got != want {
				t.Fatalf("sel52x2(%d, %d) = %x, want %x", d1, d2, got, want)
			}
		}
	}
}

// FuzzAMM52x20x2 builds an odd 1024-bit modulus and four operands below
// 2m from the fuzz input and checks both lanes of the radix-2^52 kernel
// against big.Int. It skips on a CPU without the kernel.
func FuzzAMM52x20x2(f *testing.F) {
	ones := make([]byte, 128) // m = 2^1024 - 1
	for i := range ones {
		ones[i] = 0xff
	}
	top := append(append([]byte{1}, ones[:127]...), 0xfd) // 2m - 1 for that m
	f.Add(ones, top, top, []byte{1}, []byte{})
	f.Add([]byte{1}, ones, []byte{}, ones[:64], top) // m = 2^1023 + 1
	f.Fuzz(func(t *testing.T, mb, x1b, y1b, x2b, y2b []byte) {
		if !hasAMM52 {
			t.Skip("amm52x20x2 needs AVX512F, AVX512VL, AVX512IFMA and BMI2 with OS support")
		}
		if len(mb) > 128 {
			mb = mb[:128]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 1023, 1).SetBit(m, 0, 1)
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		twoM := new(big.Int).Lsh(m, 1)
		op := func(b []byte) *big.Int { return new(big.Int).Mod(new(big.Int).SetBytes(b), twoM) }
		checkAMM52(t, mo, op(x1b), op(y1b), op(x2b), op(y2b))
	})
}

// FuzzExpPair builds an odd 1024-bit modulus, two bases and two
// exponents below a 160-bit order from the fuzz input and checks both
// lanes of ExpPair, on the radix-2^52 kernel where the CPU runs it and on
// montMul, against big.Int.Exp.
func FuzzExpPair(f *testing.F) {
	ones := make([]byte, 128) // m = 2^1024 - 1
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones, ones, []byte{}, ones[:20], []byte{})                   // (m - 1)^0, as 2^160 - 1 reduces to 0 mod q; 0^0
	f.Add([]byte{1}, []byte{2}, []byte{1}, []byte{0x0f}, []byte{0x10}) // m = 2^1023 + 1
	f.Fuzz(func(t *testing.T, mb, b1b, b2b, e1b, e2b []byte) {
		if len(mb) > 128 {
			mb = mb[:128]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 1023, 1).SetBit(m, 0, 1)
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		q := new(big.Int).Sub(new(big.Int).Lsh(One, 160), One)
		base := func(b []byte) *big.Int { return new(big.Int).Mod(new(big.Int).SetBytes(b), m) }
		exp := func(b []byte) *big.Int { return new(big.Int).Mod(new(big.Int).SetBytes(b), q) }
		checkExpPair(t, mo, q, base(b1b), exp(e1b), base(b2b), exp(e2b))
	})
}

// FuzzLaneChains builds an odd 1024-bit modulus, up to 40 residues, an
// exponent of up to 168 bits and a factor from the fuzz input, and runs
// every chain the radix-2^52 lane takes over from montMul on both
// backends: the packed product (raw and Montgomery), the prefix chain
// from a fuzzed start, a comb walk with a factor over a table of the
// first residue (the exponent past 160 bits takes the big.Int fallback)
// and a public-exponent power. Each backend runs on the inputs in its own
// representation, and each result must match the other backend's
// canonical value and big.Int. On a CPU without the lane only the
// montMul side runs.
func FuzzLaneChains(f *testing.F) {
	ones := make([]byte, 128) // m = 2^1024 - 1
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones, append(ones, ones[:64]...), ones[:20], ones, uint8(1))
	f.Add([]byte{1}, []byte{2, 0, 0, 0, 3}, []byte{0x80}, []byte{}, uint8(0)) // m = 2^1023 + 1
	f.Add(ones[:100], make([]byte, 300), ones[:21], []byte{1}, uint8(7))
	f.Fuzz(func(t *testing.T, mb, vb, eb, yb []byte, start uint8) {
		if len(mb) > 128 {
			mb = mb[:128]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 1023, 1).SetBit(m, 0, 1)
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		var vals []*big.Int
		for ; len(vb) > 0 && len(vals) < 40; vb = vb[min(len(vb), 128):] {
			vals = append(vals, new(big.Int).Mod(new(big.Int).SetBytes(vb[:min(len(vb), 128)]), m))
		}
		n := len(vals)
		want := ProductMod(vals, m)
		backends := chainBackends(mo)
		for name, mo := range backends {
			flat := packAll(mo, vals)
			if got := mo.ProductOf(flat); got.Cmp(want) != 0 {
				t.Fatalf("%s: ProductOf of %d values %v, want %v", name, n, got, want)
			}
			if got := mo.FromMont(mo.ProductMontOf(flat)); got.Cmp(want) != 0 {
				t.Fatalf("%s: ProductMontOf of %d values %v, want %v", name, n, got, want)
			}
		}
		if n > 0 {
			checkPrefixProducts(t, mo, vals, int(start)%n)
		}
		base := Two
		if n > 0 {
			base = vals[0]
		}
		e := new(big.Int).SetBytes(eb[:min(len(eb), 21)])
		y := new(big.Int).SetBytes(yb[:min(len(yb), 129)])
		tab, err := NewFixedBaseTable(base, mo, 160)
		if err != nil {
			t.Fatal(err)
		}
		wantExp := new(big.Int).Exp(base, e, m)
		wantMul := new(big.Int).Mod(new(big.Int).Mul(wantExp, y), m)
		for name, tab := range tableBackends(tab) {
			if got := tab.ExpMul(e, y); got.Cmp(wantMul) != 0 {
				t.Fatalf("%s: ExpMul(%x, %x) = %x, want %x", name, e, y, got, wantMul)
			}
		}
		for name, mo := range backends {
			if got := mo.FromMont(mo.ExpElem(mo.ToMont(base), e)); got.Cmp(wantExp) != 0 {
				t.Fatalf("%s: ExpElem(%x) = %x, want %x", name, e, got, wantExp)
			}
		}
	})
}
