package dsa

import (
	"crypto/rand"
	"math/big"
	"testing"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/params"
)

func testGroupKey(t testing.TB) *KeyPair {
	t.Helper()
	kp, err := GenerateKey(rand.Reader, params.Default().Schnorr)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return kp
}

func TestSignVerify(t *testing.T) {
	kp := testGroupKey(t)
	msg := []byte("BD round 2 payload")
	sig, err := kp.Sign(rand.Reader, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := kp.Verify(msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := kp.PublicOnly().Verify(msg, sig); err != nil {
		t.Fatalf("Verify with public-only key: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	kp := testGroupKey(t)
	msg := []byte("m")
	sig, _ := kp.Sign(rand.Reader, msg)
	if err := kp.Verify([]byte("other"), sig); err == nil {
		t.Fatal("wrong message accepted")
	}
	bad := &Signature{R: new(big.Int).Add(sig.R, big.NewInt(1)), S: sig.S}
	if err := kp.Verify(msg, bad); err == nil {
		t.Fatal("tampered r accepted")
	}
	bad = &Signature{R: sig.R, S: new(big.Int).Add(sig.S, big.NewInt(1))}
	if err := kp.Verify(msg, bad); err == nil {
		t.Fatal("tampered s accepted")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	kp1 := testGroupKey(t)
	kp2 := testGroupKey(t)
	sig, _ := kp1.Sign(rand.Reader, []byte("m"))
	if err := kp2.Verify([]byte("m"), sig); err == nil {
		t.Fatal("signature accepted under wrong key")
	}
}

func TestVerifyRejectsRangeViolations(t *testing.T) {
	kp := testGroupKey(t)
	q := kp.Group.Q
	for _, sig := range []*Signature{
		nil,
		{R: big.NewInt(0), S: big.NewInt(1)},
		{R: big.NewInt(1), S: big.NewInt(0)},
		{R: q, S: big.NewInt(1)},
		{R: big.NewInt(1), S: q},
	} {
		if err := kp.Verify([]byte("m"), sig); err == nil {
			t.Fatalf("out-of-range signature accepted: %+v", sig)
		}
	}
}

// TestVerifyFixedBaseMatches pins Verify, whose g^u1 leg walks the
// group's comb table, to the DSA equation computed on big.Int.Exp: a
// good signature and a tampered one get the same verdict from both.
func TestVerifyFixedBaseMatches(t *testing.T) {
	def := params.Default().Schnorr
	kp, err := GenerateKey(rand.Reader, &mathx.SchnorrGroup{P: def.P, Q: def.Q, G: def.G})
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	g := kp.Group
	// reference is (g^u1 · y^u2 mod p) mod q == r, on big.Int.Exp.
	reference := func(msg []byte, sig *Signature) bool {
		w := new(big.Int).ModInverse(sig.S, g.Q)
		h := hashx.ScalarDigest(hashx.TagDSADigest, g.Q, msg)
		u1 := new(big.Int).Mod(new(big.Int).Mul(h, w), g.Q)
		u2 := new(big.Int).Mod(new(big.Int).Mul(sig.R, w), g.Q)
		v := new(big.Int).Exp(g.G, u1, g.P)
		v.Mod(v.Mul(v, new(big.Int).Exp(kp.Y, u2, g.P)), g.P)
		return v.Mod(v, g.Q).Cmp(sig.R) == 0
	}
	for i := 0; i < 8; i++ {
		msg := []byte{byte(i), 'm'}
		sig, err := kp.Sign(rand.Reader, msg)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if err := kp.Verify(msg, sig); err != nil || !reference(msg, sig) {
			t.Fatalf("good signature: Verify = %v, reference = %v", err, reference(msg, sig))
		}
		bad := &Signature{R: sig.R, S: new(big.Int).Add(sig.S, big.NewInt(1))}
		if kp.Verify(msg, bad) == nil || reference(msg, bad) {
			t.Fatal("a tampered signature verified")
		}
	}
}

func TestSignRequiresPrivate(t *testing.T) {
	kp := testGroupKey(t).PublicOnly()
	if _, err := kp.Sign(rand.Reader, []byte("m")); err == nil {
		t.Fatal("public-only key signed")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	kp := testGroupKey(t)
	sig, _ := kp.Sign(rand.Reader, []byte("m"))
	enc := sig.Encode(kp.Group.Q)
	if len(enc) != 40 { // 2 × 160-bit
		t.Fatalf("DSA signature wire size %d, want 40", len(enc))
	}
	dec, err := Decode(enc, kp.Group.Q)
	if err != nil {
		t.Fatal(err)
	}
	if dec.R.Cmp(sig.R) != 0 || dec.S.Cmp(sig.S) != 0 {
		t.Fatal("round trip mismatch")
	}
	if _, err := Decode(enc[:len(enc)-1], kp.Group.Q); err == nil {
		t.Fatal("short encoding accepted")
	}
}

func BenchmarkSign(b *testing.B) {
	kp := testGroupKey(b)
	msg := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kp.Sign(rand.Reader, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	kp := testGroupKey(b)
	msg := []byte("bench")
	sig, _ := kp.Sign(rand.Reader, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kp.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
