package mathx

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
	"strings"
	"testing"
)

// montTestModuli builds the modulus shapes the engine must survive:
// word-boundary sizes (1024/2048 bits exactly), one word, a few odd
// non-prime composites, and sizes straddling a limb boundary.
func montTestModuli(t *testing.T) []*big.Int {
	t.Helper()
	out := []*big.Int{
		big.NewInt(3),
		big.NewInt(0xffffffff),               // dense low word
		new(big.Int).SetUint64(1<<63 + 1025), // exactly one 64-bit word, sparse
	}
	for _, bits := range []int{65, 127, 1024, 1025, 2048} {
		p, err := RandPrime(rand.Reader, bits)
		if err != nil {
			t.Fatalf("prime %d: %v", bits, err)
		}
		out = append(out, p)
	}
	// Odd composite (RSA-shaped): primes are not required by the engine.
	a, _ := RandPrime(rand.Reader, 512)
	b, _ := RandPrime(rand.Reader, 512)
	out = append(out, new(big.Int).Mul(a, b))
	return out
}

func TestNewModulusRejects(t *testing.T) {
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(4), big.NewInt(1)} {
		if _, err := NewModulus(m); err == nil {
			t.Errorf("NewModulus(%v) accepted an invalid modulus", m)
		}
	}
	huge := new(big.Int).Lsh(One, uint(maxModulusWords*bits.UintSize))
	huge.Add(huge, One)
	if _, err := NewModulus(huge); err == nil {
		t.Errorf("NewModulus accepted a modulus beyond the engine width")
	}
}

// TestMontRoundTrip fuzzes ToMont/FromMont against math/big over every
// modulus shape, pinning the boundary operands 0, 1, m-1 and values >= m
// (which must reduce on entry).
func TestMontRoundTrip(t *testing.T) {
	for _, m := range montTestModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatalf("NewModulus(%d bits): %v", m.BitLen(), err)
		}
		cases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(m, One),           // m-1
			new(big.Int).Set(m),                // ≡ 0
			new(big.Int).Add(m, One),           // ≡ 1
			new(big.Int).Mul(m, big.NewInt(7)), // ≡ 0, much wider than m
		}
		for i := 0; i < 20; i++ {
			v, err := RandInt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, v)
		}
		for _, v := range cases {
			want := new(big.Int).Mod(v, m)
			if got := mo.FromMont(mo.ToMont(v)); got.Cmp(want) != 0 {
				t.Fatalf("round trip mod %d bits: v=%v got %v want %v", m.BitLen(), v, got, want)
			}
		}
	}
}

// TestMontMulSqr cross-checks Montgomery products and squares against
// math/big, including the 0 and m-1 boundary operands.
func TestMontMulSqr(t *testing.T) {
	for _, m := range montTestModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		operands := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(m, One)}
		for i := 0; i < 10; i++ {
			v, err := RandInt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			operands = append(operands, v)
		}
		for _, x := range operands {
			mx := mo.ToMont(x)
			wantSq := new(big.Int).Mod(new(big.Int).Mul(x, x), m)
			if got := mo.FromMont(mo.Mul(mx, mx)); got.Cmp(wantSq) != 0 {
				t.Fatalf("sqr mod %d bits: x=%v got %v want %v", m.BitLen(), x, got, wantSq)
			}
			for _, y := range operands {
				my := mo.ToMont(y)
				want := new(big.Int).Mod(new(big.Int).Mul(x, y), m)
				if got := mo.FromMont(mo.Mul(mx, my)); got.Cmp(want) != 0 {
					t.Fatalf("mul mod %d bits: x=%v y=%v got %v want %v", m.BitLen(), x, y, got, want)
				}
			}
		}
	}
}

// TestMontExp cross-checks the windowed variable-base exponentiation
// against big.Int.Exp for random inputs at every modulus shape, plus the
// degenerate exponents 0, 1 and base cases 0, m-1.
func TestMontExp(t *testing.T) {
	for _, m := range montTestModuli(t) {
		mo, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		bases := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(m, One)}
		exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537)}
		for i := 0; i < 6; i++ {
			b, err := RandInt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, b)
			bl := uint(16 << i) // 16..512-bit exponents take windows of several widths
			e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, bl))
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
		for _, b := range bases {
			for _, e := range exps {
				want := new(big.Int).Exp(b, e, m)
				if got := mo.FromMont(mo.ExpElem(mo.ToMont(b), e)); got.Cmp(want) != 0 {
					t.Fatalf("Exp(%v, %v) mod %d bits: got %v want %v", b, e, m.BitLen(), got, want)
				}
			}
		}
	}
}

// TestExpWindow checks expWindow's counted choice. The GQ exponent 65537
// takes w = 1: 16 squarings and one product, where w = 3 adds a table of
// four. A 160-bit exponent of random-looking bits (the first hex digits
// of e) takes w = 4, and 2^160 - 1 takes w = 5: 16 + 31 + 155 calls
// against 8 + 39 + 156 for w = 4. For exponents of 2 to 1024 bits, the
// pick must cost no more than any width's walk, counted on slidingWindow
// itself.
func TestExpWindow(t *testing.T) {
	digits, _ := new(big.Int).SetString("b7e151628aed2a6abf7158809cf4f3c762e7160f", 16)
	for _, c := range []struct {
		e *big.Int
		w int
	}{
		{big.NewInt(65537), 1},
		{big.NewInt(32), 1},
		{digits, 4},
		{new(big.Int).Sub(new(big.Int).Lsh(One, 160), One), 5},
	} {
		if got := expWindow(c.e); got != c.w {
			t.Errorf("expWindow(%x) = %d, want %d", c.e, got, c.w)
		}
	}
	cost := func(e *big.Int, w int) int {
		n := 0
		if w > 1 {
			n = 1 << (w - 1)
		}
		slidingWindow(e, w, func(uint) {}, func() { n++ }, func(uint) { n++ })
		return n
	}
	for bits := 2; bits <= 1024; bits += 7 {
		e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, uint(bits)))
		if err != nil {
			t.Fatal(err)
		}
		e.SetBit(e, bits-1, 1)
		got := cost(e, expWindow(e))
		for w := 1; w <= maxExpWindow; w++ {
			if c := cost(e, w); c < got {
				t.Fatalf("%d-bit %x: expWindow picks %d for %d calls, w = %d takes %d", bits, e, expWindow(e), got, w, c)
			}
		}
	}
}

// TestElemFormatRedacts prints an Elem, a []Elem and an error wrapping
// an Elem with every common verb, and checks that no limb of the residue
// or of its canonical value, in decimal or hex, appears.
func TestElemFormatRedacts(t *testing.T) {
	p, err := RandPrime(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := RandInt(rand.Reader, p)
	if err != nil {
		t.Fatal(err)
	}
	e := mo.ToMont(v)
	wrapped := fmt.Errorf("eq. 3: %w", fmt.Errorf("edge %v: %w", e, io.ErrUnexpectedEOF))
	if !errors.Is(wrapped, io.ErrUnexpectedEOF) {
		t.Fatal("the wrapped error is lost")
	}
	// Every Elem output and the error's message show the token; the
	// error's own verbs print its message (%x in hex).
	redacted := []string{wrapped.Error()}
	var messages []string
	for _, verb := range []string{"%v", "%x", "%d", "%s", "%+v", "%#v"} {
		redacted = append(redacted, fmt.Sprintf(verb, e), fmt.Sprintf(verb, []Elem{e, e}))
		messages = append(messages, fmt.Sprintf(verb, wrapped))
	}
	var limbs []string
	for _, w := range append(slices.Clone(e.w), v.Bits()...) {
		limbs = append(limbs, fmt.Sprintf("%d", w), fmt.Sprintf("%x", w), fmt.Sprintf("%X", w))
	}
	for _, o := range redacted {
		if !strings.Contains(o, "mathx.Elem(redacted)") {
			t.Errorf("%q: no redaction", o)
		}
	}
	for _, o := range append(redacted, messages...) {
		for _, l := range limbs {
			if strings.Contains(o, l) {
				t.Errorf("%q shows the limb %s", o, l)
			}
		}
	}
}

func benchModulus(b *testing.B, bits int) (*Modulus, *big.Int, *big.Int) {
	b.Helper()
	p, err := RandPrime(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	mo, err := NewModulus(p)
	if err != nil {
		b.Fatal(err)
	}
	base, _ := RandInt(rand.Reader, p)
	exp, _ := RandInt(rand.Reader, benchOrder)
	return mo, base, exp
}

// benchOrder is the benchmarks' 160-bit exponent order, 2^160 - 1.
var benchOrder = new(big.Int).Sub(new(big.Int).Lsh(One, 160), One)

// benchScalar draws a Scalar below benchOrder.
func benchScalar(b *testing.B) Scalar {
	b.Helper()
	s, err := DrawScalar(rand.Reader, benchOrder)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkVarBaseExp compares the Montgomery engine's variable-base
// exponentiation against math/big at the paper's sizes (1024-bit modulus,
// 160-bit exponent), with conversions in and out ("mont") and inside
// the domain ("mont-domain").
func BenchmarkVarBaseExp(b *testing.B) {
	mo, base, exp := benchModulus(b, 1024)
	b.Run("big", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(base, exp, mo.m)
		}
	})
	b.Run("mont", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mo.FromMont(mo.ExpElem(mo.ToMont(base), exp))
		}
	})
	b.Run("mont-domain", func(b *testing.B) {
		be := mo.ToMont(base)
		for i := 0; i < b.N; i++ {
			mo.ExpElem(be, exp)
		}
	})
}

// BenchmarkExpElem times public-exponent powers in the Montgomery domain
// at the protocols' sizes: a 6-bit ring size (edge^n for n = 32), the
// 17-bit GQ e = 65537 and a 160-bit challenge, on the radix-2^52 lane
// with both lanes on the chain ("lane", where the CPU runs it) and on
// montMul ("generic").
func BenchmarkExpElem(b *testing.B) {
	mo, base, exp := benchModulus(b, 1024)
	generic := WithoutLane(mo)
	for _, e := range []*big.Int{big.NewInt(32), big.NewInt(65537), exp} {
		for name, mo := range map[string]*Modulus{"lane": mo, "generic": generic} {
			b.Run(fmt.Sprintf("e=%dbit/%s", e.BitLen(), name), func(b *testing.B) {
				if name == "lane" && !mo.lane {
					b.Skip("no radix-2^52 kernel on this CPU")
				}
				be := mo.ToMont(base)
				for i := 0; i < b.N; i++ {
					mo.ExpElem(be, e)
				}
			})
		}
	}
}

// BenchmarkExpPair raises two bases to two 160-bit exponents in the
// Montgomery domain, as round 2 and the K* fold do: ExpPair on the
// radix-2^52 kernel ("lane", where the CPU runs it), the same fixed
// window on montMul ("generic") and two big.Int.Exp calls ("big").
func BenchmarkExpPair(b *testing.B) {
	lane, base, e1 := benchModulus(b, 1024)
	e2 := benchScalar(b)
	s1 := mustScalar(b, benchOrder, e1)
	for name, mo := range map[string]*Modulus{"lane": lane, "generic": WithoutLane(lane)} {
		b.Run(name, func(b *testing.B) {
			if name == "lane" && !mo.lane {
				b.Skip("no radix-2^52 kernel on this CPU")
			}
			b1 := mo.ToMont(base)
			b2 := mo.Mul(b1, b1)
			for i := 0; i < b.N; i++ {
				mo.ExpPair(b1, s1, b2, e2)
			}
		})
	}
	b.Run("big", func(b *testing.B) {
		b2, e2 := new(big.Int).Exp(base, Two, lane.m), e2.BigVarTime()
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(base, e1, lane.m)
			new(big.Int).Exp(b2, e2, lane.m)
		}
	})
}

// BenchmarkExpFixed times one fixed-window power of a 160-bit exponent,
// the Diffie-Hellman power of Join and Merge: ExpPair's lane call with
// both lanes on the chain ("lane", where the CPU runs it) against one
// montMul chain ("mont").
func BenchmarkExpFixed(b *testing.B) {
	lane, base, _ := benchModulus(b, 1024)
	e := benchScalar(b)
	for name, mo := range map[string]*Modulus{"lane": lane, "mont": WithoutLane(lane)} {
		b.Run(name, func(b *testing.B) {
			if name == "lane" && !mo.lane {
				b.Skip("no radix-2^52 kernel on this CPU")
			}
			be := mo.ToMont(base)
			for i := 0; i < b.N; i++ {
				mo.ExpFixed(be, e)
			}
		})
	}
}

// BenchmarkProductOf multiplies 32 packed 1024-bit residues, the size of
// the ring32 workload's Z, T and Πs products: the two-accumulator chain
// on the radix-2^52 kernel ("lane", where the CPU runs it) against one
// montMul chain ("generic").
func BenchmarkProductOf(b *testing.B) {
	lane, _, _ := benchModulus(b, 1024)
	vals := make([]*big.Int, 32)
	for i := range vals {
		vals[i], _ = RandInt(rand.Reader, lane.m)
	}
	for name, mo := range map[string]*Modulus{"lane": lane, "generic": WithoutLane(lane)} {
		b.Run(name, func(b *testing.B) {
			if name == "lane" && !mo.lane {
				b.Skip("no radix-2^52 kernel on this CPU")
			}
			flat := mo.NewPacked(len(vals))
			for i, v := range vals {
				flat.Load(i, v)
			}
			for i := 0; i < b.N; i++ {
				mo.ProductOf(flat)
			}
		})
	}
}

// BenchmarkAMM52x20x2 times the radix-2^52 kernel alone, one ns/op per
// call: a dependent chain in which each call squares both lanes' results
// of the one before, as the power and product chains do.
func BenchmarkAMM52x20x2(b *testing.B) {
	if !hasAMM52 {
		b.Skip("no radix-2^52 kernel on this CPU")
	}
	mo, base, exp := benchModulus(b, 1024)
	z := pair52{[20]big.Word(mo.ToMont(base).w), [20]big.Word(mo.ToMont(exp).w)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo.mulPair(&z, &z, &z)
	}
}

// BenchmarkMontMul times one MulInto on the radix-2^52 lane ("lane",
// where the CPU runs it), on montMul ("mul": montMul1024 on a CPU with
// ADX and BMI2) and on the generic loop ("mul-generic"), against
// big.Int's product and division.
func BenchmarkMontMul(b *testing.B) {
	mo, base, _ := benchModulus(b, 1024)
	generics := withGeneric(mo)
	backends := map[string]*Modulus{"lane": mo, "mul": WithoutLane(mo), "mul-generic": generics[len(generics)-1]}
	for name, mo := range backends {
		b.Run(name, func(b *testing.B) {
			if name == "lane" && !mo.lane {
				b.Skip("no radix-2^52 kernel on this CPU")
			}
			x := mo.ToMont(base)
			y := mo.Mul(x, x)
			z := mo.Mul(x, y)
			for i := 0; i < b.N; i++ {
				mo.MulInto(z, x, y)
			}
		})
	}
	b.Run("big-mulmod", func(b *testing.B) {
		t := new(big.Int)
		for i := 0; i < b.N; i++ {
			t.Mul(base, base)
			t.Mod(t, mo.m)
		}
	})
}
