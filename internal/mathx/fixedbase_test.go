package mathx

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// testModulus returns a deterministic-ish odd prime modulus and a base for
// table tests at a size large enough to exercise multi-word arithmetic.
func testModulus(t *testing.T, bits int) (*big.Int, *big.Int) {
	t.Helper()
	p, err := RandPrime(rand.Reader, bits)
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	b, err := RandInt(rand.Reader, p)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	if b.Sign() == 0 {
		b.SetInt64(2)
	}
	return p, b
}

func TestFixedBaseTableMatchesModExp(t *testing.T) {
	p, base := testModulus(t, 512)
	maxBits := 160
	for _, window := range []uint{1, 2, 5, DefaultWindow, 8} {
		tab, err := NewFixedBaseTable(base, p, maxBits, window)
		if err != nil {
			t.Fatalf("w=%d: %v", window, err)
		}
		bound := new(big.Int).Lsh(One, uint(maxBits))
		for i := 0; i < 40; i++ {
			e, err := RandInt(rand.Reader, bound)
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Exp(base, e, p)
			if got := tab.Exp(e); got.Cmp(want) != 0 {
				t.Fatalf("w=%d: table exp mismatch for e=%v", window, e)
			}
		}
	}
}

func TestFixedBaseTableEdgeExponents(t *testing.T) {
	p, base := testModulus(t, 256)
	q, err := RandPrime(rand.Reader, 96)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewFixedBaseTable(base, p, q.BitLen(), DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	edges := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(q, One),                // q-1: the largest protocol exponent
		q,                                       // exactly q
		new(big.Int).Lsh(One, uint(q.BitLen())), // oversized: falls back
		new(big.Int).Neg(One),                   // negative: falls back to big.Int.Exp semantics
	}
	for _, e := range edges {
		want := new(big.Int).Exp(base, e, p)
		got := tab.Exp(e)
		switch {
		case want == nil && got == nil:
			// both signal non-invertible negative exponent
		case want == nil || got == nil:
			t.Fatalf("e=%v: nil mismatch (want %v, got %v)", e, want, got)
		case got.Cmp(want) != 0:
			t.Fatalf("e=%v: mismatch", e)
		}
	}
}

func TestFixedBaseTableRejectsBadShapes(t *testing.T) {
	p, base := testModulus(t, 128)
	if _, err := NewFixedBaseTable(base, big.NewInt(1), 16, 4); err == nil {
		t.Fatal("modulus 1 accepted")
	}
	if _, err := NewFixedBaseTable(nil, p, 16, 4); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewFixedBaseTable(base, p, 0, 4); err == nil {
		t.Fatal("zero maxBits accepted")
	}
	if _, err := NewFixedBaseTable(base, p, 16, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewFixedBaseTable(base, p, 16, 13); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestSchnorrGroupPrecomputeTransparent(t *testing.T) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 256, 96)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]*big.Int, 0, 16)
	for i := 0; i < 12; i++ {
		e, err := RandScalar(rand.Reader, sg.Q)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	exps = append(exps, big.NewInt(0), big.NewInt(1), new(big.Int).Sub(sg.Q, One), sg.Q)
	naive := make([]*big.Int, len(exps))
	for i, e := range exps {
		naive[i] = sg.Exp(e)
	}
	if sg.FixedBase() != nil {
		t.Fatal("table attached before Precompute")
	}
	if tab := sg.Precompute(); tab == nil {
		t.Fatal("Precompute returned nil on a valid group")
	}
	if sg.Precompute() != sg.FixedBase() {
		t.Fatal("Precompute is not idempotent")
	}
	for i, e := range exps {
		if got := sg.Exp(e); got.Cmp(naive[i]) != 0 {
			t.Fatalf("accelerated Exp diverges for exponent %v", e)
		}
	}
}

// TestMultiExpMatchesSeparateExps checks MultiExpElem against the product
// of separate ModExp calls. MultiExpElem takes only non-negative
// exponents, so a negative exponent e is fed as the inverted base with
// exponent −e and compared with ModExp's own inverse path.
func TestMultiExpMatchesSeparateExps(t *testing.T) {
	p, _ := testModulus(t, 256)
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + trial%6
		bases := make([]Elem, n)
		exps := make([]*big.Int, n)
		want := big.NewInt(1)
		for i := 0; i < n; i++ {
			b, err := RandInt(rand.Reader, p)
			if err != nil {
				t.Fatal(err)
			}
			if b.Sign() == 0 {
				b.SetInt64(3)
			}
			e, err := RandInt(rand.Reader, new(big.Int).Lsh(One, 64))
			if err != nil {
				t.Fatal(err)
			}
			base := b
			if trial%3 == 0 {
				e.Neg(e) // exercise ModExp's inverse path
				if base, err = ModInverse(b, p); err != nil {
					t.Fatal(err)
				}
			}
			t1, err := ModExp(b, e, p)
			if err != nil {
				t.Fatal(err)
			}
			want.Mul(want, t1)
			want.Mod(want, p)
			bases[i], exps[i] = mo.ToMont(base), new(big.Int).Abs(e)
		}
		got, err := mo.MultiExpElem(bases, exps)
		if err != nil {
			t.Fatal(err)
		}
		if g := mo.FromMont(got); g.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExpElem = %v, want %v", trial, g, want)
		}
	}
}

// TestMultiExpEdgeCases pins MultiExpElem's input contract: the empty
// product and zero exponents give 1, and mismatched lengths, nil operands
// and negative exponents are rejected.
func TestMultiExpEdgeCases(t *testing.T) {
	p, b := testModulus(t, 128)
	mo, err := NewModulus(p)
	if err != nil {
		t.Fatal(err)
	}
	bm := mo.ToMont(b)
	got, err := mo.MultiExpElem(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mo.IsOne(got) {
		t.Fatalf("empty MultiExpElem = %v, want 1", mo.FromMont(got))
	}
	if _, err := mo.MultiExpElem([]Elem{bm}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := mo.MultiExpElem([]Elem{nil}, []*big.Int{One}); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := mo.MultiExpElem([]Elem{bm}, []*big.Int{nil}); err == nil {
		t.Fatal("nil exponent accepted")
	}
	if _, err := mo.MultiExpElem([]Elem{bm}, []*big.Int{big.NewInt(-1)}); err == nil {
		t.Fatal("negative exponent accepted")
	}
	got, err = mo.MultiExpElem([]Elem{bm}, []*big.Int{big.NewInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !mo.IsOne(got) {
		t.Fatalf("b^0 = %v, want 1", mo.FromMont(got))
	}
}

func benchGroup(b *testing.B) (*SchnorrGroup, []*big.Int) {
	b.Helper()
	sg, err := GenerateSchnorrGroup(rand.Reader, 1024, 160)
	if err != nil {
		b.Fatal(err)
	}
	exps := make([]*big.Int, 64)
	for i := range exps {
		exps[i], err = RandScalar(rand.Reader, sg.Q)
		if err != nil {
			b.Fatal(err)
		}
	}
	return sg, exps
}

func BenchmarkSchnorrExpNaive(b *testing.B) {
	sg, exps := benchGroup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(sg.G, exps[i%len(exps)], sg.P)
	}
}

func BenchmarkSchnorrExpFixedBase(b *testing.B) {
	sg, exps := benchGroup(b)
	tab := sg.Precompute()
	if tab == nil {
		b.Fatal("no table")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Exp(exps[i%len(exps)])
	}
}
