package mathx

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
	"testing"
)

// testModulus returns a random odd prime modulus, its Montgomery context
// and a base for table tests at a size large enough to exercise
// multi-word arithmetic.
func testModulus(t *testing.T, bits int) (*big.Int, *Modulus, *big.Int) {
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
	return p, mustModulus(t, p), b
}

// mustModulus returns NewModulus(m), failing the test on an error.
func mustModulus(t testing.TB, m *big.Int) *Modulus {
	t.Helper()
	mo, err := NewModulus(m)
	if err != nil {
		t.Fatalf("NewModulus(%v): %v", m, err)
	}
	return mo
}

// combGeometries are the (teeth, blocks) shapes the table tests sweep:
// the degenerate one-strip-per-bit comb, shapes whose strip count does
// not divide the common exponent sizes, and the production geometry.
var combGeometries = [][2]int{{1, 1}, {2, 3}, {5, 2}, {7, 3}, {combTeeth, combBlocks}}

// TestFixedBaseTableMatchesModExp checks random 160-bit walks against
// big.Int.Exp for every swept geometry at 512 and 1024 bits, on the
// radix-2^52 lane (two-block tables at 1024 bits, where the CPU runs it)
// and on montMul.
func TestFixedBaseTableMatchesModExp(t *testing.T) {
	for _, size := range []int{512, 1024} {
		p, mo, base := testModulus(t, size)
		maxBits := 160
		for _, g := range combGeometries {
			tab, err := newCombTable(base, mo, maxBits, g[0], g[1])
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
				for name, tab := range tableBackends(tab) {
					if got := tab.Exp(e); got.Cmp(want) != 0 {
						t.Fatalf("%d bits, h=%d v=%d, %s: table exp mismatch for e=%v", size, g[0], g[1], name, e)
					}
				}
			}
		}
	}
}

// TestFixedBaseTableEdgeExponents checks the production table at 256 and
// 1024 bits, on both walks, at the edge exponents — 0, 1, 2, q-1, q,
// 2^maxBits-1 and a random one, and the oversized and negative ones that
// fall back to big.Int — and ExpMul at each with y = 0, 1, m-1 and a
// random factor.
func TestFixedBaseTableEdgeExponents(t *testing.T) {
	for _, size := range []int{256, 1024} {
		p, mo, base := testModulus(t, size)
		q, err := RandPrime(rand.Reader, 96+size/16)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewFixedBaseTable(base, mo, q.BitLen())
		if err != nil {
			t.Fatal(err)
		}
		if want := size == 1024 && bits.UintSize == 64 && hasAMM52; tab.mo.lane != want {
			t.Fatalf("%d bits: lane walk = %v, want %v", size, tab.mo.lane, want)
		}
		bound := new(big.Int).Lsh(One, uint(q.BitLen()))
		edges := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(q, One),     // q-1: the largest protocol exponent
			q,                            // exactly q
			new(big.Int).Sub(bound, One), // every bit of every strip set
			randBelow(t, bound),
			bound,                 // oversized: falls back
			new(big.Int).Neg(One), // negative: falls back to big.Int.Exp semantics
		}
		ys := []*big.Int{big.NewInt(0), One, new(big.Int).Sub(p, One), randBelow(t, p)}
		for _, e := range edges {
			want := new(big.Int).Exp(base, e, p)
			for name, tab := range tableBackends(tab) {
				got := tab.Exp(e)
				switch {
				case want == nil && got == nil:
					continue // both signal non-invertible negative exponent
				case want == nil || got == nil:
					t.Fatalf("%d bits, %s, e=%v: nil mismatch (want %v, got %v)", size, name, e, want, got)
				case got.Cmp(want) != 0:
					t.Fatalf("%d bits, %s, e=%v: mismatch", size, name, e)
				}
				for _, y := range ys {
					prod := new(big.Int).Mul(want, y)
					if got := tab.ExpMul(e, y); got.Cmp(prod.Mod(prod, p)) != 0 {
						t.Fatalf("%d bits, %s, e=%v, y=%v: ExpMul mismatch", size, name, e, y)
					}
				}
			}
		}
	}
}

func TestFixedBaseTableRejectsBadShapes(t *testing.T) {
	_, mo, base := testModulus(t, 128)
	if _, err := NewFixedBaseTable(base, nil, 16); err == nil {
		t.Fatal("nil modulus accepted")
	}
	if _, err := NewFixedBaseTable(nil, mo, 16); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewFixedBaseTable(base, mo, 0); err == nil {
		t.Fatal("zero maxBits accepted")
	}
}

// TestSchnorrGroupPrecomputeTransparent checks that Exp, a walk of the
// group's comb table, equals the big.Int power for random exponents
// below q and the edges 0, 1, q-1 and q.
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
	for _, e := range exps {
		if got, want := sg.Exp(e), new(big.Int).Exp(sg.G, e, sg.P); got.Cmp(want) != 0 {
			t.Fatalf("Exp diverges from the big.Int power for exponent %v", e)
		}
	}
}

// TestSchnorrGeneratorTablePublishedOnce races eight first uses of a
// fresh group's Exp: every result equals the big.Int power, and exactly
// one comb table is published, the same one on every later read.
func TestSchnorrGeneratorTablePublishedOnce(t *testing.T) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 512, 160)
	if err != nil {
		t.Fatal(err)
	}
	if GeneratorTable(sg) != nil {
		t.Fatal("table published before the first Exp")
	}
	const workers = 8
	exps := make([]*big.Int, workers)
	for i := range exps {
		if exps[i], err = RandScalar(rand.Reader, sg.Q); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*big.Int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = sg.Exp(exps[i])
		}()
	}
	close(start)
	wg.Wait()
	for i, e := range exps {
		if got[i].Cmp(new(big.Int).Exp(sg.G, e, sg.P)) != 0 {
			t.Fatalf("worker %d: Exp diverges from the big.Int power", i)
		}
	}
	tab := GeneratorTable(sg)
	if tab == nil {
		t.Fatal("no table published after the first Exp")
	}
	for i := 0; i < 4; i++ {
		sg.Exp(exps[i])
		if GeneratorTable(sg) != tab {
			t.Fatal("a second table was published")
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
	tab := sg.generatorTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Exp(exps[i%len(exps)])
	}
}

// BenchmarkCombGeometry times a 160-bit walk and a table build at the
// protocols' 1024-bit modulus for the production comb and its
// neighbours, the measurement behind combTeeth and combBlocks. "walk"
// runs on montMul; "lane" is the two-block walk on the radix-2^52 kernel,
// where the CPU runs it.
func BenchmarkCombGeometry(b *testing.B) {
	sg, exps := benchGroup(b)
	for _, g := range [][2]int{{6, 2}, {7, 2}, {8, 1}, {combTeeth, combBlocks}, {8, 3}, {9, 2}} {
		name := fmt.Sprintf("h=%d,v=%d", g[0], g[1])
		tab, err := newCombTable(sg.G, sg.Mont(), 160, g[0], g[1])
		if err != nil {
			b.Fatal(err)
		}
		generic := tableBackends(tab)["montMul"]
		b.Run(name+"/walk", func(b *testing.B) {
			b.ReportMetric(float64(len(*generic.flat.w)*bits.UintSize/8)/1024, "KiB")
			for i := 0; i < b.N; i++ {
				generic.Exp(exps[i%len(exps)])
			}
		})
		b.Run(name+"/lane", func(b *testing.B) {
			if !tab.mo.lane || g[1] != 2 {
				b.Skip("no radix-2^52 walk for this table on this CPU")
			}
			b.ReportMetric(float64(len(*tab.flat.w)*bits.UintSize/8)/1024, "KiB")
			for i := 0; i < b.N; i++ {
				tab.Exp(exps[i%len(exps)])
			}
		})
		b.Run(name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := newCombTable(sg.G, sg.Mont(), 160, g[0], g[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
