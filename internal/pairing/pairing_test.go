package pairing

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"idgka/internal/ec"
	"idgka/internal/params"
)

var (
	tgOnce sync.Once
	tg     *Group
)

// testGroup returns a shared Group on the embedded production parameters.
func testGroup(t testing.TB) *Group {
	t.Helper()
	tgOnce.Do(func() {
		g, err := NewGroup(params.Default().Pairing)
		if err != nil {
			panic(err)
		}
		tg = g
	})
	return tg
}

func TestPairNonDegenerate(t *testing.T) {
	g := testGroup(t)
	e, err := g.Pair(g.Generator(), g.Generator())
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if e.IsOne() {
		t.Fatal("ê(G, G) = 1: pairing degenerate")
	}
	// Output must have order dividing q: e^q == 1.
	if !g.Exp(e, big.NewInt(0)).IsOne() { // e^0 = 1 sanity
		t.Fatal("exp identity broken")
	}
	eq := g.ctx.exp(e.v, g.N)
	if !eq.IsOne() {
		t.Fatal("pairing output does not have order dividing q")
	}
}

func TestPairBilinearity(t *testing.T) {
	g := testGroup(t)
	gen := g.Generator()
	a, err := g.RandScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.RandScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	aP := g.ScalarMult(gen, a)
	bP := g.ScalarMult(gen, b)

	eAB, err := g.Pair(aP, bP)
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.Pair(gen, gen)
	if err != nil {
		t.Fatal(err)
	}
	ab := new(big.Int).Mul(a, b)
	ab.Mod(ab, g.N)
	want := g.Exp(base, ab)
	if !eAB.Equal(want) {
		t.Fatal("ê(aP, bP) != ê(P, P)^(ab)")
	}
}

func TestPairSymmetric(t *testing.T) {
	g := testGroup(t)
	gen := g.Generator()
	a, _ := g.RandScalar(rand.Reader)
	b, _ := g.RandScalar(rand.Reader)
	aP := g.ScalarMult(gen, a)
	bP := g.ScalarMult(gen, b)
	e1, err := g.Pair(aP, bP)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g.Pair(bP, aP)
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Equal(e2) {
		t.Fatal("pairing not symmetric")
	}
}

func TestPairLinearInFirstArg(t *testing.T) {
	g := testGroup(t)
	gen := g.Generator()
	a, _ := g.RandScalar(rand.Reader)
	aP := g.ScalarMult(gen, a)
	e1, err := g.Pair(aP, gen)
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.Pair(gen, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Equal(g.Exp(base, a)) {
		t.Fatal("ê(aP, Q) != ê(P, Q)^a")
	}
}

func TestPairProductRelation(t *testing.T) {
	// ê(P+Q, R) = ê(P, R)·ê(Q, R): the multiplicative property SOK
	// verification depends on.
	g := testGroup(t)
	gen := g.Generator()
	a, _ := g.RandScalar(rand.Reader)
	b, _ := g.RandScalar(rand.Reader)
	P := g.ScalarMult(gen, a)
	Q := g.ScalarMult(gen, b)
	sum := g.Add(P, Q)
	lhs, err := g.Pair(sum, gen)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := g.Pair(P, gen)
	e2, _ := g.Pair(Q, gen)
	if !lhs.Equal(g.MulGT(e1, e2)) {
		t.Fatal("ê(P+Q, R) != ê(P,R)·ê(Q,R)")
	}
}

func TestPairInfinityIsOne(t *testing.T) {
	g := testGroup(t)
	e, err := g.Pair(ec.Infinity(), g.Generator())
	if err != nil || !e.IsOne() {
		t.Fatal("ê(O, G) should be 1")
	}
	e, err = g.Pair(g.Generator(), ec.Infinity())
	if err != nil || !e.IsOne() {
		t.Fatal("ê(G, O) should be 1")
	}
}

func TestPairRejectsOffCurve(t *testing.T) {
	g := testGroup(t)
	bad := ec.Point{X: big.NewInt(1), Y: big.NewInt(1)}
	if g.IsOnCurve(bad) {
		t.Skip("surprisingly on curve")
	}
	if _, err := g.Pair(bad, g.Generator()); err == nil {
		t.Fatal("off-curve input accepted")
	}
}

func TestInvGT(t *testing.T) {
	g := testGroup(t)
	e, _ := g.Pair(g.Generator(), g.Generator())
	prod := g.MulGT(e, g.InvGT(e))
	if !prod.IsOne() {
		t.Fatal("e · e^-1 != 1")
	}
}

func TestHashToGroup(t *testing.T) {
	g := testGroup(t)
	pt, err := g.HashToGroup("alice")
	if err != nil {
		t.Fatalf("HashToGroup: %v", err)
	}
	if err := g.CheckSubgroup(pt); err != nil {
		t.Fatalf("hashed point: %v", err)
	}
	pt2, err := g.HashToGroup("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(pt2) {
		t.Fatal("HashToGroup not deterministic")
	}
	pt3, err := g.HashToGroup("bob")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Equal(pt3) {
		t.Fatal("distinct identities hashed to same point")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	g := testGroup(t)
	k, _ := g.RandScalar(rand.Reader)
	pt := g.ScalarBaseMult(k)
	enc := g.Marshal(pt)
	dec, err := g.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(pt) {
		t.Fatal("round trip mismatch")
	}
	// Infinity.
	inf, err := g.Unmarshal(g.Marshal(ec.Infinity()))
	if err != nil || !inf.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
	// Corrupt.
	enc[5] ^= 0xff
	if _, err := g.Unmarshal(enc); err == nil {
		// A corrupted encoding may land on the curve; flip more to be sure.
		enc[6] ^= 0xff
		if _, err := g.Unmarshal(enc); err == nil {
			t.Log("corrupted point still on curve (rare); not failing")
		}
	}
}

func TestNewGroupRejectsInvalidParams(t *testing.T) {
	good := params.Default().Pairing
	bad := *good
	bad.Q = new(big.Int).Add(good.Q, big.NewInt(2))
	if _, err := NewGroup(&bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestGTBytesStable(t *testing.T) {
	g := testGroup(t)
	e, _ := g.Pair(g.Generator(), g.Generator())
	b1 := e.Bytes()
	b2 := e.Bytes()
	if len(b1) != 2*((g.P.BitLen()+7)/8) {
		t.Fatalf("GT encoding length %d", len(b1))
	}
	if string(b1) != string(b2) {
		t.Fatal("GT bytes unstable")
	}
}

func BenchmarkPair(b *testing.B) {
	g := testGroup(b)
	gen := g.Generator()
	k, _ := g.RandScalar(rand.Reader)
	aP := g.ScalarMult(gen, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Pair(aP, gen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashToGroup(b *testing.B) {
	g := testGroup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.HashToGroup("bench-identity"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalarMult(b *testing.B) {
	g := testGroup(b)
	k, _ := g.RandScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ScalarBaseMult(k)
	}
}
