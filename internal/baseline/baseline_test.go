package baseline

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"idgka/internal/ec"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/pki"
	"idgka/internal/sigs/dsa"
	"idgka/internal/sigs/gq"
	"idgka/internal/sigs/sok"
)

var (
	envOnce sync.Once
	envPKG  *pki.PKG
	envSOK  sok.SystemParams
	envCAE  *pki.CA
	envCAD  *pki.CA
)

func testEnv(t testing.TB) (*pki.PKG, sok.SystemParams, *pki.CA, *pki.CA) {
	t.Helper()
	envOnce.Do(func() {
		p, err := pki.NewPKG(rand.Reader, params.Default())
		if err != nil {
			panic(err)
		}
		envPKG = p
		envSOK = p.SOKParams()
		envCAE, err = pki.NewECDSACA(rand.Reader, "ca-ec", ec.Secp160r1())
		if err != nil {
			panic(err)
		}
		envCAD, err = pki.NewDSACA(rand.Reader, "ca-dsa", params.Default().Schnorr)
		if err != nil {
			panic(err)
		}
	})
	return envPKG, envSOK, envCAE, envCAD
}

func buildECDSAGroup(t testing.TB, n int) (*netsim.Network, []*Participant) {
	t.Helper()
	_, _, ca, _ := testEnv(t)
	net := netsim.New()
	var parts []*Participant
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("E%02d", i+1)
		auth, err := NewECDSAIdentity(rand.Reader, id, ec.Secp160r1(), ca)
		if err != nil {
			t.Fatal(err)
		}
		m := meter.New()
		p, err := NewParticipant(id, params.Default().Public(), auth, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Register(id, m); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	return net, parts
}

func assertBDAgreement(t *testing.T, parts []*Participant) {
	t.Helper()
	key := parts[0].Key()
	if key == nil {
		t.Fatal("no key")
	}
	for _, p := range parts[1:] {
		if p.Key() == nil || p.Key().Cmp(key) != 0 {
			t.Fatalf("%s disagrees on key", p.ID())
		}
	}
}

func TestBDWithECDSA(t *testing.T) {
	net, parts := buildECDSAGroup(t, 5)
	if err := RunBD(net, parts); err != nil {
		t.Fatalf("RunBD: %v", err)
	}
	assertBDAgreement(t, parts)
}

// TestBDECDSACountersMatchTable1 checks the BD-with-ECDSA column of
// Table 1: 3 exps, 2 tx, 2(n-1) rx, 1 cert tx, n-1 cert rx/ver, 1 sign
// gen, n-1 sign ver per user.
func TestBDECDSACountersMatchTable1(t *testing.T) {
	n := 5
	net, parts := buildECDSAGroup(t, n)
	if err := RunBD(net, parts); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		r := p.Meter().Report()
		if r.Exp != 3 {
			t.Errorf("%s: Exp = %d, want 3", p.ID(), r.Exp)
		}
		if r.MsgTx != 2 || r.MsgRx != 2*(n-1) {
			t.Errorf("%s: Tx/Rx = %d/%d, want 2/%d", p.ID(), r.MsgTx, r.MsgRx, 2*(n-1))
		}
		if r.CertTx != 1 || r.CertRx != n-1 || r.CertVer != n-1 {
			t.Errorf("%s: certs = %d/%d/%d, want 1/%d/%d", p.ID(), r.CertTx, r.CertRx, r.CertVer, n-1, n-1)
		}
		if r.SignGen[meter.SchemeECDSA] != 1 || r.SignVer[meter.SchemeECDSA] != n-1 {
			t.Errorf("%s: sign = %d/%d, want 1/%d", p.ID(), r.SignGen[meter.SchemeECDSA], r.SignVer[meter.SchemeECDSA], n-1)
		}
		if r.MapToPoint != 0 {
			t.Errorf("%s: MapToPoint = %d, want 0", p.ID(), r.MapToPoint)
		}
	}
}

func TestBDWithDSA(t *testing.T) {
	_, _, _, ca := testEnv(t)
	net := netsim.New()
	var parts []*Participant
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("D%02d", i+1)
		kp, err := dsa.GenerateKey(rand.Reader, params.Default().Schnorr)
		if err != nil {
			t.Fatal(err)
		}
		auth, err := NewDSAIdentity(rand.Reader, id, ca, kp)
		if err != nil {
			t.Fatal(err)
		}
		m := meter.New()
		p, err := NewParticipant(id, params.Default().Public(), auth, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Register(id, m); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if err := RunBD(net, parts); err != nil {
		t.Fatalf("RunBD DSA: %v", err)
	}
	assertBDAgreement(t, parts)
	r := parts[0].Meter().Report()
	if r.SignVer[meter.SchemeDSA] != 3 {
		t.Fatalf("SignVer = %d, want 3", r.SignVer[meter.SchemeDSA])
	}
}

func TestBDWithSOK(t *testing.T) {
	pkgI, sokParams, _, _ := testEnv(t)
	net := netsim.New()
	var parts []*Participant
	n := 3 // SOK verifies are pairing-heavy; keep the group small
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("S%02d", i+1)
		sk, err := pkgI.ExtractSOK(id)
		if err != nil {
			t.Fatal(err)
		}
		auth := NewSOKAuth(sokParams, sk)
		m := meter.New()
		p, err := NewParticipant(id, params.Default().Public(), auth, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Register(id, m); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if err := RunBD(net, parts); err != nil {
		t.Fatalf("RunBD SOK: %v", err)
	}
	assertBDAgreement(t, parts)
	r := parts[0].Meter().Report()
	if r.SignVer[meter.SchemeSOK] != n-1 || r.MapToPoint != n-1 {
		t.Fatalf("SOK counters %d/%d, want %d/%d", r.SignVer[meter.SchemeSOK], r.MapToPoint, n-1, n-1)
	}
	if r.CertTx != 0 || r.CertRx != 0 {
		t.Fatal("ID-based SOK must not move certificates")
	}
}

func TestBDRejectsForgedSignature(t *testing.T) {
	net, parts := buildECDSAGroup(t, 3)
	net.SetFaults(netsim.FaultPlan{CorruptFirst: MsgBDRound2})
	if err := RunBD(net, parts); err == nil {
		t.Fatal("corrupted round-2 signature accepted")
	}
}

func TestBDRejectsForeignCertificate(t *testing.T) {
	// A participant whose certificate comes from an untrusted CA must be
	// rejected during round-1 ingestion.
	_, _, ca, _ := testEnv(t)
	rogue, err := pki.NewECDSACA(rand.Reader, "rogue", ec.Secp160r1())
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New()
	var parts []*Participant
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("F%02d", i+1)
		issuer := ca
		if i == 2 {
			issuer = rogue
		}
		auth, err := NewECDSAIdentity(rand.Reader, id, ec.Secp160r1(), issuer)
		if err != nil {
			t.Fatal(err)
		}
		// All participants trust only the legitimate CA.
		auth.(*certAuth).anchor = ca.Anchor()
		m := meter.New()
		p, _ := NewParticipant(id, params.Default().Public(), auth, m, nil)
		_ = net.Register(id, m)
		parts = append(parts, p)
	}
	if err := RunBD(net, parts); err == nil {
		t.Fatal("rogue certificate accepted")
	}
}

func TestBDRekey(t *testing.T) {
	net, parts := buildECDSAGroup(t, 4)
	if err := RunBD(net, parts); err != nil {
		t.Fatal(err)
	}
	k1 := parts[0].Key()
	// Leave: drop one member, full re-run (the paper's baseline strategy).
	leaverID := parts[2].ID()
	net.Unregister(leaverID)
	remaining := append(append([]*Participant{}, parts[:2]...), parts[3:]...)
	if err := RunBDRekey(net, remaining); err != nil {
		t.Fatalf("rekey: %v", err)
	}
	assertBDAgreement(t, remaining)
	if remaining[0].Key().Cmp(k1) == 0 {
		t.Fatal("rekey did not change the key")
	}
}

func TestSSNAgreement(t *testing.T) {
	set := params.Default()
	net := netsim.New()
	var parts []*SSNParticipant
	n := 5
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("N%02d", i+1)
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			t.Fatal(err)
		}
		m := meter.New()
		p, err := NewSSNParticipant(sk, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Register(id, m); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if err := RunSSN(net, parts); err != nil {
		t.Fatalf("RunSSN: %v", err)
	}
	key := parts[0].Key()
	for _, p := range parts[1:] {
		if p.Key().Cmp(key) != 0 {
			t.Fatalf("%s disagrees", p.ID())
		}
	}
	// Exponentiation count: 2n+2 per user (reconstruction; paper charges
	// 2n+4 — see docs/ARCHITECTURE.md#accounting-conventions).
	for _, p := range parts {
		r := p.Meter().Report()
		if r.Exp != 2*n+2 {
			t.Errorf("%s: Exp = %d, want %d", p.ID(), r.Exp, 2*n+2)
		}
		if r.TotalSignGen() != 0 || r.TotalSignVer() != 0 {
			t.Errorf("%s: SSN must not use signatures", p.ID())
		}
		if r.MsgTx != 2 || r.MsgRx != 2*(n-1) {
			t.Errorf("%s: Tx/Rx = %d/%d", p.ID(), r.MsgTx, r.MsgRx)
		}
	}
}

func TestSSNRejectsImpersonation(t *testing.T) {
	set := params.Default()
	net := netsim.New()
	var parts []*SSNParticipant
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("M%02d", i+1)
		key := id
		if i == 2 {
			key = "mallory" // holds mallory's key but claims M03
		}
		sk, err := gq.Extract(set.RSA, key)
		if err != nil {
			t.Fatal(err)
		}
		sk.ID = id // forge the claimed identity
		m := meter.New()
		p, _ := NewSSNParticipant(sk, m, nil)
		_ = net.Register(id, m)
		parts = append(parts, p)
	}
	if err := RunSSN(net, parts); err == nil {
		t.Fatal("impersonation with mismatched identity key accepted")
	}
}

func TestSSNNeedsTwo(t *testing.T) {
	if err := RunSSN(netsim.New(), nil); err == nil {
		t.Fatal("empty SSN run accepted")
	}
}

var _ Authenticator = (*SOKAuth)(nil)
var _ Authenticator = (*certAuth)(nil)
