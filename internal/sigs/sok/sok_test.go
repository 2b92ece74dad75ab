package sok

import (
	"crypto/rand"
	"sync"
	"testing"

	"idgka/internal/ec"
	"idgka/internal/pairing"
	"idgka/internal/params"
	"idgka/internal/redacttest"
)

var (
	pkgOnce sync.Once
	pkgInst *PKG
)

func testPKG(t testing.TB) *PKG {
	t.Helper()
	pkgOnce.Do(func() {
		g, err := pairing.NewGroup(params.Default().Pairing)
		if err != nil {
			panic(err)
		}
		p, err := NewPKG(rand.Reader, g)
		if err != nil {
			panic(err)
		}
		pkgInst = p
	})
	return pkgInst
}

func TestSignVerify(t *testing.T) {
	p := testPKG(t)
	sk, err := p.Extract("alice")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	msg := []byte("BD round payload")
	sig, err := sk.Sign(rand.Reader, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(p.Params, "alice", msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongIdentity(t *testing.T) {
	p := testPKG(t)
	sk, _ := p.Extract("alice")
	sig, _ := sk.Sign(rand.Reader, []byte("m"))
	if err := Verify(p.Params, "bob", []byte("m"), sig); err == nil {
		t.Fatal("wrong identity accepted")
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	p := testPKG(t)
	sk, _ := p.Extract("alice")
	sig, _ := sk.Sign(rand.Reader, []byte("original"))
	if err := Verify(p.Params, "alice", []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message accepted")
	}
}

func TestVerifyRejectsSwappedComponents(t *testing.T) {
	p := testPKG(t)
	sk, _ := p.Extract("alice")
	sig, _ := sk.Sign(rand.Reader, []byte("m"))
	bad := &Signature{U: sig.V, V: sig.U}
	if err := Verify(p.Params, "alice", []byte("m"), bad); err == nil {
		t.Fatal("swapped components accepted")
	}
}

func TestVerifyRejectsNilAndOffCurve(t *testing.T) {
	p := testPKG(t)
	if err := Verify(p.Params, "alice", []byte("m"), nil); err == nil {
		t.Fatal("nil signature accepted")
	}
	sk, _ := p.Extract("alice")
	sig, _ := sk.Sign(rand.Reader, []byte("m"))
	bad := &Signature{U: ec.Infinity(), V: sig.V}
	// Infinity is technically in the subgroup; ensure verification fails
	// rather than panics.
	if err := Verify(p.Params, "alice", []byte("m"), bad); err == nil {
		t.Fatal("U = infinity accepted")
	}
}

func TestExtractRejectsEmptyID(t *testing.T) {
	p := testPKG(t)
	if _, err := p.Extract(""); err == nil {
		t.Fatal("empty identity accepted")
	}
}

func TestSignaturesDifferAcrossCalls(t *testing.T) {
	p := testPKG(t)
	sk, _ := p.Extract("alice")
	s1, _ := sk.Sign(rand.Reader, []byte("m"))
	s2, _ := sk.Sign(rand.Reader, []byte("m"))
	if s1.U.Equal(s2.U) {
		t.Fatal("randomised signatures repeated U")
	}
	if err := Verify(p.Params, "alice", []byte("m"), s1); err != nil {
		t.Fatal(err)
	}
	if err := Verify(p.Params, "alice", []byte("m"), s2); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := testPKG(t)
	sk, _ := p.Extract("alice")
	sig, _ := sk.Sign(rand.Reader, []byte("m"))
	g := p.Params.Group
	enc := sig.Encode(g)
	dec, err := Decode(g, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.U.Equal(sig.U) || !dec.V.Equal(sig.V) {
		t.Fatal("round trip mismatch")
	}
	if _, err := Decode(g, enc[:len(enc)-1]); err == nil {
		t.Fatal("short encoding accepted")
	}
}

func TestCrossUserIndependence(t *testing.T) {
	// A key extracted for alice must not sign for carol even with the same
	// PKG.
	p := testPKG(t)
	alice, _ := p.Extract("alice")
	carol, _ := p.Extract("carol")
	sig, _ := alice.Sign(rand.Reader, []byte("m"))
	if err := Verify(p.Params, carol.ID, []byte("m"), sig); err == nil {
		t.Fatal("alice's signature verified as carol")
	}
}

func BenchmarkSign(b *testing.B) {
	p := testPKG(b)
	sk, _ := p.Extract("bench")
	msg := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Sign(rand.Reader, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	p := testPKG(b)
	sk, _ := p.Extract("bench")
	msg := []byte("bench")
	sig, _ := sk.Sign(rand.Reader, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(p.Params, "bench", msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRedaction formats the PKG and an extracted key with every verb in
// every placement and looks for the master secret and D_ID's coordinates.
func TestRedaction(t *testing.T) {
	p := testPKG(t)
	sk, err := p.Extract("alice")
	if err != nil {
		t.Fatal(err)
	}
	redacttest.Check(t, "PKG", p, p.s.BigVarTime())
	redacttest.Check(t, "PrivateKey", sk, sk.d.X, sk.d.Y)
}
