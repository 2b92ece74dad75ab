package mathx

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
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

// combGeometries are the (teeth, blocks) shapes the table tests sweep:
// the degenerate one-strip-per-bit comb, shapes whose strip count does
// not divide the common exponent sizes, and the production geometry.
var combGeometries = [][2]int{{1, 1}, {2, 3}, {5, 2}, {7, 3}, {combTeeth, combBlocks}}

func TestFixedBaseTableMatchesModExp(t *testing.T) {
	p, base := testModulus(t, 512)
	maxBits := 160
	for _, g := range combGeometries {
		tab, err := newCombTable(base, p, maxBits, g[0], g[1])
		if err != nil {
			t.Fatalf("h=%d v=%d: %v", g[0], g[1], err)
		}
		bound := new(big.Int).Lsh(One, uint(maxBits))
		for i := 0; i < 40; i++ {
			e, err := RandInt(rand.Reader, bound)
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Exp(base, e, p)
			if got := tab.Exp(e); got.Cmp(want) != 0 {
				t.Fatalf("h=%d v=%d: table exp mismatch for e=%v", g[0], g[1], e)
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
	tab, err := NewFixedBaseTable(base, p, q.BitLen())
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
	if _, err := NewFixedBaseTable(base, big.NewInt(1), 16); err == nil {
		t.Fatal("modulus 1 accepted")
	}
	if _, err := NewFixedBaseTable(nil, p, 16); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewFixedBaseTable(base, p, 0); err == nil {
		t.Fatal("zero maxBits accepted")
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

// BenchmarkCombGeometry times a 160-bit walk and a table build at the
// protocols' 1024-bit modulus for the production comb and its
// neighbours, the measurement behind combTeeth and combBlocks.
func BenchmarkCombGeometry(b *testing.B) {
	sg, exps := benchGroup(b)
	for _, g := range [][2]int{{6, 2}, {7, 2}, {8, 1}, {combTeeth, combBlocks}, {8, 3}, {9, 2}} {
		name := fmt.Sprintf("h=%d,v=%d", g[0], g[1])
		tab, err := newCombTable(sg.G, sg.P, 160, g[0], g[1])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/walk", func(b *testing.B) {
			b.ReportMetric(float64(len(tab.flat)*bits.UintSize/8)/1024, "KiB")
			for i := 0; i < b.N; i++ {
				tab.Exp(exps[i%len(exps)])
			}
		})
		b.Run(name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := newCombTable(sg.G, sg.P, 160, g[0], g[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
