package engine

import (
	"crypto/rand"
	"math/big"
	"testing"

	"idgka/internal/ec"
	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/params"
	"idgka/internal/redacttest"
	"idgka/internal/sigs/dsa"
	"idgka/internal/sigs/ecdsa"
	"idgka/internal/sigs/gq"
)

// TestRedaction formats every engine value that holds key material, and
// the keys and parameters a Machine is built from, with every verb in
// every placement, and looks for each secret's words and limbs: the
// exponents, τ, the group key, K_DH and K*, the edge in the Montgomery
// domain, S_ID, the DSA and ECDSA private keys and the PKG's RSA secrets.
func TestRedaction(t *testing.T) {
	set := params.Default()
	sk, err := gq.Extract(set.RSA, "A01")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Sign(rand.Reader, []byte("builds the S_ID table")); err != nil {
		t.Fatal(err)
	}
	mc, err := NewMachine(Config{Set: set.Public()}, sk, meter.New())
	if err != nil {
		t.Fatal(err)
	}
	p, q := set.Schnorr.P, set.Schnorr.Q
	var secrets []*big.Int
	draw := func(bound *big.Int) mathx.Scalar {
		s, err := mathx.DrawScalar(rand.Reader, bound)
		if err != nil {
			t.Fatal(err)
		}
		secrets = append(secrets, s.BigVarTime())
		return s
	}
	r, rPrime, tau := draw(q), draw(q), draw(set.RSA.N)
	key, kDH, kStar := draw(p), draw(p), draw(p)
	roster := []string{"A01", "A02", "A03"}
	g := mc.newGroup(roster)
	g.R, g.Tau, g.Key = r, tau, key
	rs, err := newRingState(mc, roster)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := mathx.RandScalar(rand.Reader, p)
	if err != nil {
		t.Fatal(err)
	}
	rs.r, rs.tau, rs.edge = r, tau, rs.p.ToMont(edge)
	dsaKey, err := dsa.GenerateKey(rand.Reader, set.Schnorr)
	if err != nil {
		t.Fatal(err)
	}
	ecKey, err := ecdsa.GenerateKey(rand.Reader, ec.Secp160r1())
	if err != nil {
		t.Fatal(err)
	}
	rsa := []*big.Int{set.RSA.P.BigVarTime(), set.RSA.Q.BigVarTime(), set.RSA.D.BigVarTime()}
	for _, c := range []struct {
		name    string
		v       any
		secrets []*big.Int
	}{
		{"ringState", rs, append(redacttest.Montgomery(edge, p), secrets...)},
		{"joinFlow", &joinFlow{mc: mc, base: g, rJoin: r, rPrime: rPrime, kDH: kDH, kStar: kStar}, secrets},
		{"mergeFlow", &mergeFlow{mc: mc, base: g, rNew: rPrime, kDH: kDH, kStarOwn: kStar, kStarForeign: key}, secrets},
		{"Group", g, secrets},
		{"Machine", mc, append([]*big.Int{sk.S.BigVarTime()}, secrets...)},
		{"gq.PrivateKey", sk, []*big.Int{sk.S.BigVarTime()}},
		{"dsa.KeyPair", dsaKey, []*big.Int{dsaKey.X.BigVarTime()}},
		{"ecdsa.KeyPair", ecKey, []*big.Int{ecKey.D.BigVarTime()}},
		{"params.Set", set, rsa},
	} {
		redacttest.Check(t, c.name, c.v, c.secrets...)
	}
}
