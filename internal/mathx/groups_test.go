package mathx

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestGenerateSchnorrGroup(t *testing.T) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 256, 160)
	if err != nil {
		t.Fatalf("GenerateSchnorrGroup: %v", err)
	}
	if err := sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sg.P.BitLen() != 256 {
		t.Fatalf("p has %d bits, want 256", sg.P.BitLen())
	}
	if sg.Q.BitLen() != 160 {
		t.Fatalf("q has %d bits, want 160", sg.Q.BitLen())
	}
}

func TestSchnorrGroupExpAndMembership(t *testing.T) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := RandScalar(rand.Reader, sg.Q)
	if err != nil {
		t.Fatal(err)
	}
	z := sg.Exp(x)
	if z.Cmp(new(big.Int).Exp(sg.G, x, sg.P)) != 0 {
		t.Fatal("Exp diverges from the big.Int power")
	}
	if new(big.Int).Exp(z, sg.Q, sg.P).Cmp(One) != 0 {
		t.Fatal("g^x should be in the subgroup")
	}
}

func TestSchnorrValidateRejectsBadGroups(t *testing.T) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	bad := &SchnorrGroup{P: new(big.Int).Add(sg.P, One), Q: sg.Q, G: sg.G}
	if err := bad.Validate(); err == nil {
		t.Fatal("composite p accepted")
	}
	bad = &SchnorrGroup{P: sg.P, Q: sg.Q, G: big.NewInt(1)}
	if err := bad.Validate(); err == nil {
		t.Fatal("generator 1 accepted")
	}
	if err := (&SchnorrGroup{}).Validate(); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestGenerateRSAParams(t *testing.T) {
	rp, err := GenerateRSAParams(rand.Reader, 512)
	if err != nil {
		t.Fatalf("GenerateRSAParams: %v", err)
	}
	if err := rp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := rp.N.BitLen(); got < 511 || got > 512 {
		t.Fatalf("modulus bit length %d out of expected range", got)
	}
	// Exponent round trip: (x^d)^e == x.
	x := big.NewInt(123456789)
	s := new(big.Int).Exp(x, rp.D.BigVarTime(), rp.N)
	back := new(big.Int).Exp(s, rp.E, rp.N)
	if back.Cmp(x) != 0 {
		t.Fatal("d/e are not inverse exponents")
	}
}

func TestRSAPublicStripsSecrets(t *testing.T) {
	rp, err := GenerateRSAParams(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pub := rp.Public()
	if pub.D.Order() != nil || pub.P.Order() != nil || pub.Q.Order() != nil {
		t.Fatal("Public() leaked secret components")
	}
	if pub.N.Cmp(rp.N) != 0 || pub.E.Cmp(rp.E) != 0 {
		t.Fatal("Public() mangled public components")
	}
}

func TestRSAValidateRejectsInconsistent(t *testing.T) {
	rp, err := GenerateRSAParams(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewScalar(rp.N, new(big.Int).Add(rp.Q.BigVarTime(), Two))
	if err != nil {
		t.Fatal(err)
	}
	bad := &RSAParams{N: rp.N, E: rp.E, P: rp.P, Q: q2, D: rp.D}
	if err := bad.Validate(); err == nil {
		t.Fatal("N != P*Q accepted")
	}
}

func BenchmarkSchnorrExp(b *testing.B) {
	sg, err := GenerateSchnorrGroup(rand.Reader, 1024, 160)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := RandScalar(rand.Reader, sg.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg.Exp(x)
	}
}
