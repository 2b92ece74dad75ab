package pki

import (
	"crypto/rand"
	"sync"
	"testing"

	"idgka/internal/ec"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/sigs/sok"
)

var (
	pkgOnce sync.Once
	pkgInst *PKG
)

func testPKG(t testing.TB) *PKG {
	t.Helper()
	pkgOnce.Do(func() {
		p, err := NewPKG(rand.Reader, params.Default())
		if err != nil {
			panic(err)
		}
		pkgInst = p
	})
	return pkgInst
}

func TestPKGExtractGQ(t *testing.T) {
	p := testPKG(t)
	sk, err := p.ExtractGQ("alice")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sk.Sign(rand.Reader, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := gq.Verify(sk.Pub, "alice", []byte("m"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestPKGExtractSOK(t *testing.T) {
	p := testPKG(t)
	sk, err := p.ExtractSOK("alice")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sk.Sign(rand.Reader, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sok.Verify(p.SOKParams(), "alice", []byte("m"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestPKGRequiresMasterKey(t *testing.T) {
	if _, err := NewPKG(rand.Reader, params.Default().Public()); err == nil {
		t.Fatal("PKG created from public-only params")
	}
}

func TestPKGParamsArePublic(t *testing.T) {
	p := testPKG(t)
	if p.Params().HasMasterKey() {
		t.Fatal("PKG leaked master key in public params")
	}
}

func TestECDSACertificateLifecycle(t *testing.T) {
	ca, err := NewECDSACA(rand.Reader, "ca-1", ec.Secp160r1())
	if err != nil {
		t.Fatal(err)
	}
	subjectKey := []byte{2, 3, 4, 5}
	cert, err := ca.Issue(rand.Reader, "alice", subjectKey)
	if err != nil {
		t.Fatal(err)
	}
	anchor := ca.Anchor()
	if err := anchor.VerifyCertificate(cert); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Encode/decode round trip preserves verifiability.
	dec, err := DecodeCertificate(cert.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := anchor.VerifyCertificate(dec); err != nil {
		t.Fatalf("decoded cert: %v", err)
	}
}

func TestDSACertificateLifecycle(t *testing.T) {
	ca, err := NewDSACA(rand.Reader, "ca-1", params.Default().Schnorr)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(rand.Reader, "bob", []byte{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Anchor().VerifyCertificate(cert); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestCertificateTamperDetected(t *testing.T) {
	ca, _ := NewECDSACA(rand.Reader, "ca-1", ec.Secp160r1())
	cert, _ := ca.Issue(rand.Reader, "alice", []byte{1})
	anchor := ca.Anchor()
	bad := *cert
	bad.Subject = "mallory"
	if err := anchor.VerifyCertificate(&bad); err == nil {
		t.Fatal("subject swap accepted")
	}
	bad2 := *cert
	bad2.PublicKey = []byte{6, 6, 6}
	if err := anchor.VerifyCertificate(&bad2); err == nil {
		t.Fatal("key swap accepted")
	}
}

func TestCertificateWrongIssuerRejected(t *testing.T) {
	ca1, _ := NewECDSACA(rand.Reader, "ca-1", ec.Secp160r1())
	ca2, _ := NewECDSACA(rand.Reader, "ca-2", ec.Secp160r1())
	cert, _ := ca1.Issue(rand.Reader, "alice", []byte{1})
	if err := ca2.Anchor().VerifyCertificate(cert); err == nil {
		t.Fatal("cert from foreign CA accepted")
	}
}

func TestSerialIncrements(t *testing.T) {
	ca, _ := NewECDSACA(rand.Reader, "ca-1", ec.Secp160r1())
	c1, _ := ca.Issue(rand.Reader, "a", []byte{1})
	c2, _ := ca.Issue(rand.Reader, "b", []byte{2})
	if c2.Serial != c1.Serial+1 {
		t.Fatal("serials not monotonic")
	}
}

func TestDecodeCertificateRejectsGarbage(t *testing.T) {
	if _, err := DecodeCertificate([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestIssueRejectsEmptySubject(t *testing.T) {
	ca, _ := NewECDSACA(rand.Reader, "ca-1", ec.Secp160r1())
	if _, err := ca.Issue(rand.Reader, "", []byte{1}); err == nil {
		t.Fatal("empty subject accepted")
	}
}

func TestECDSACertificateSizeRegime(t *testing.T) {
	// The paper charges 86 bytes for an ECDSA certificate; our compact
	// encoding should be in the same regime (well under a DSA cert).
	ca, _ := NewECDSACA(rand.Reader, "ca", ec.Secp160r1())
	pub := ec.Secp160r1().MarshalCompressed(ec.Secp160r1().Generator())
	cert, _ := ca.Issue(rand.Reader, "alice", pub)
	if n := len(cert.Encode()); n > 160 {
		t.Fatalf("ECDSA certificate %d bytes, expected compact (<160)", n)
	}
}
