package ec

import (
	"crypto/elliptic"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"idgka/internal/params"
)

// curves returns the embedded curves plus internal/pairing's supersingular
// curve y² = x³ + x, whose base point has order q and cofactor (p+1)/q.
func curves() []*Curve {
	pp := params.Default().Pairing
	ss := &Curve{Name: "supersingular", P: pp.P, A: big.NewInt(1), B: big.NewInt(0), Gx: pp.Gx, Gy: pp.Gy, N: pp.Q}
	return []*Curve{Secp160r1(), P256(), ss}
}

func TestCurveParamsValidate(t *testing.T) {
	for _, c := range curves() {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

// TestValidateRejectsWrongOrder gives secp160r1 a prime N that is not its
// base point's order: Validate must see N·G ≠ ∞.
func TestValidateRejectsWrongOrder(t *testing.T) {
	c := *Secp160r1()
	c.N = new(big.Int).Add(c.N, big.NewInt(2))
	for !c.N.ProbablyPrime(20) {
		c.N.Add(c.N, big.NewInt(2))
	}
	if err := c.Validate(); err == nil {
		t.Fatal("a wrong prime order passed Validate")
	}
}

// Cross-check our P-256 arithmetic against the standard library's.
func TestP256MatchesStdlib(t *testing.T) {
	std := elliptic.P256()
	c := P256()
	for i := 0; i < 10; i++ {
		k, err := c.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		wantX, wantY := std.ScalarBaseMult(k.Bytes())
		got := c.ScalarBaseMult(k)
		if got.X.Cmp(wantX) != 0 || got.Y.Cmp(wantY) != 0 {
			t.Fatalf("scalar base mult mismatch for k=%v", k)
		}
	}
}

func TestAddCommutativeAssociative(t *testing.T) {
	for _, c := range curves() {
		g := c.Generator()
		p := c.ScalarMult(g, big.NewInt(7))
		q := c.ScalarMult(g, big.NewInt(11))
		r := c.ScalarMult(g, big.NewInt(13))
		if !c.Add(p, q).Equal(c.Add(q, p)) {
			t.Fatalf("%s: addition not commutative", c.Name)
		}
		if !c.Add(c.Add(p, q), r).Equal(c.Add(p, c.Add(q, r))) {
			t.Fatalf("%s: addition not associative", c.Name)
		}
	}
}

func TestIdentityAndInverse(t *testing.T) {
	for _, c := range curves() {
		g := c.Generator()
		if !c.Add(g, Infinity()).Equal(g) {
			t.Fatalf("%s: G + O != G", c.Name)
		}
		if !c.Add(Infinity(), g).Equal(g) {
			t.Fatalf("%s: O + G != G", c.Name)
		}
		if !c.Add(g, c.Neg(g)).IsInfinity() {
			t.Fatalf("%s: G + (-G) != O", c.Name)
		}
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	for _, c := range curves() {
		g := c.Generator()
		if !c.Double(g).Equal(c.Add(g, g)) {
			t.Fatalf("%s: 2G != G+G", c.Name)
		}
		if !c.Double(Infinity()).IsInfinity() {
			t.Fatalf("%s: 2O != O", c.Name)
		}
	}
}

func TestScalarMultDistributes(t *testing.T) {
	for _, c := range curves() {
		g := c.Generator()
		a := big.NewInt(123456789)
		b := big.NewInt(987654321)
		lhs := c.ScalarMult(g, new(big.Int).Add(a, b))
		rhs := c.Add(c.ScalarMult(g, a), c.ScalarMult(g, b))
		if !lhs.Equal(rhs) {
			t.Fatalf("%s: (a+b)G != aG + bG", c.Name)
		}
	}
}

func TestScalarMultEdgeCases(t *testing.T) {
	for _, c := range curves() {
		g := c.Generator()
		if !c.ScalarMult(g, big.NewInt(0)).IsInfinity() {
			t.Fatalf("%s: 0*G != O", c.Name)
		}
		if !c.ScalarMult(g, c.N).IsInfinity() {
			t.Fatalf("%s: n*G != O", c.Name)
		}
		if !c.ScalarMult(g, big.NewInt(1)).Equal(g) {
			t.Fatalf("%s: 1*G != G", c.Name)
		}
		nm1 := new(big.Int).Sub(c.N, big.NewInt(1))
		if !c.ScalarMult(g, nm1).Equal(c.Neg(g)) {
			t.Fatalf("%s: (n-1)*G != -G", c.Name)
		}
		np1 := new(big.Int).Add(c.N, big.NewInt(1))
		if !c.ScalarMult(g, np1).Equal(g) {
			t.Fatalf("%s: (n+1)*G != G", c.Name)
		}
		k := big.NewInt(-12345)
		if !c.ScalarMult(g, k).Equal(c.Neg(c.ScalarMult(g, big.NewInt(12345)))) {
			t.Fatalf("%s: (-k)*G != -(k*G)", c.Name)
		}
	}
}

func TestScalarMultStaysOnCurve(t *testing.T) {
	c := Secp160r1()
	f := func(k uint64) bool {
		if k == 0 {
			k = 1
		}
		pt := c.ScalarBaseMult(new(big.Int).SetUint64(k))
		return c.IsOnCurve(pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	for _, c := range curves() {
		for i := 0; i < 10; i++ {
			k, err := c.RandScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			pt := c.ScalarBaseMult(k)
			enc := c.MarshalCompressed(pt)
			if len(enc) != 1+c.byteLen() {
				t.Fatalf("%s: encoding length %d", c.Name, len(enc))
			}
			dec, err := c.UnmarshalCompressed(enc)
			if err != nil {
				t.Fatalf("%s: unmarshal: %v", c.Name, err)
			}
			if !dec.Equal(pt) {
				t.Fatalf("%s: round trip mismatch", c.Name)
			}
		}
	}
}

func TestCompressedInfinity(t *testing.T) {
	c := Secp160r1()
	enc := c.MarshalCompressed(Infinity())
	dec, err := c.UnmarshalCompressed(enc)
	if err != nil || !dec.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	c := Secp160r1()
	if _, err := c.UnmarshalCompressed([]byte{9, 9, 9}); err == nil {
		t.Fatal("bad length accepted")
	}
	// x not on curve: find an x whose rhs is a non-residue.
	enc := c.MarshalCompressed(c.Generator())
	enc[len(enc)-1] ^= 0xff
	if _, err := c.UnmarshalCompressed(enc); err == nil {
		// A flipped x may still be on-curve for ~50% of values; try a few.
		found := false
		for b := byte(0); b < 64; b++ {
			enc[len(enc)-1] = b
			if _, err := c.UnmarshalCompressed(enc); err != nil {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no invalid x rejected")
		}
	}
}

func BenchmarkScalarBaseMult160(b *testing.B) {
	c := Secp160r1()
	k, _ := c.RandScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScalarBaseMult(k)
	}
}

func BenchmarkScalarBaseMult256(b *testing.B) {
	c := P256()
	k, _ := c.RandScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScalarBaseMult(k)
	}
}
