package gq

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/params"
)

func testKey(t testing.TB, id string) *PrivateKey {
	t.Helper()
	sk, err := Extract(params.Default().RSA, id)
	if err != nil {
		t.Fatalf("Extract(%q): %v", id, err)
	}
	return sk
}

func TestSignVerifyRoundTrip(t *testing.T) {
	sk := testKey(t, "alice")
	msg := []byte("round-1 keying material")
	sig, err := sk.Sign(rand.Reader, msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(sk.Pub, "alice", msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongIdentity(t *testing.T) {
	sk := testKey(t, "alice")
	msg := []byte("m")
	sig, _ := sk.Sign(rand.Reader, msg)
	if err := Verify(sk.Pub, "bob", msg, sig); err == nil {
		t.Fatal("signature verified under wrong identity")
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	sk := testKey(t, "alice")
	sig, _ := sk.Sign(rand.Reader, []byte("original"))
	if err := Verify(sk.Pub, "alice", []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message verified")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	sk := testKey(t, "alice")
	msg := []byte("m")
	sig, _ := sk.Sign(rand.Reader, msg)
	bad := &Signature{S: new(big.Int).Add(sig.S, big.NewInt(1)), C: sig.C}
	if err := Verify(sk.Pub, "alice", msg, bad); err == nil {
		t.Fatal("tampered s verified")
	}
	bad2 := &Signature{S: sig.S, C: new(big.Int).Add(sig.C, big.NewInt(1))}
	if err := Verify(sk.Pub, "alice", msg, bad2); err == nil {
		t.Fatal("tampered c verified")
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	sk := testKey(t, "alice")
	if err := Verify(sk.Pub, "alice", []byte("m"), nil); err == nil {
		t.Fatal("nil signature accepted")
	}
	if err := Verify(sk.Pub, "alice", []byte("m"), &Signature{S: big.NewInt(0), C: big.NewInt(1)}); err == nil {
		t.Fatal("zero s accepted")
	}
	if err := Verify(sk.Pub, "alice", []byte("m"), &Signature{S: sk.Pub.N, C: big.NewInt(1)}); err == nil {
		t.Fatal("s = n accepted")
	}
}

func TestExtractRequiresMasterKey(t *testing.T) {
	pub := params.Default().RSA.Public()
	if _, err := Extract(pub, "alice"); err == nil {
		t.Fatal("Extract succeeded without master key")
	}
	if _, err := Extract(params.Default().RSA, ""); err == nil {
		t.Fatal("Extract accepted empty identity")
	}
}

func TestExtractConsistency(t *testing.T) {
	rp := params.Default().RSA
	sk := testKey(t, "alice")
	// S_ID^e == H(ID) mod n.
	back := new(big.Int).Exp(sk.S, rp.E, rp.N)
	if back.Cmp(hashx.IdentityDigest("alice", rp.N)) != 0 {
		t.Fatal("extracted key does not invert to identity digest")
	}
}

// batchFixture builds one honest keying round for n signers: commitments,
// the common challenge c = H(T, Z) and every response, as rounds 1-2 of
// the protocol would.
func batchFixture(t testing.TB, n int) (pub Params, ids []string, responses []*big.Int, c, z *big.Int) {
	t.Helper()
	pub = ParamsFrom(params.Default().RSA)
	ids = make([]string, n)
	taus := make([]*big.Int, n)
	ts := make([]*big.Int, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch-%03d", i)
		tau, ti, err := Commitment(rand.Reader, pub)
		if err != nil {
			t.Fatal(err)
		}
		taus[i], ts[i] = tau, ti
	}
	z = big.NewInt(0xdeadbeef) // stands in for Π z_i mod p
	c = GroupChallenge(mathx.ProductMod(ts, pub.N), z)
	responses = make([]*big.Int, n)
	for i, id := range ids {
		responses[i] = testKey(t, id).Respond(taus[i], c)
	}
	return pub, ids, responses, c, z
}

// refCommitment is the reference for the Montgomery core: a plain math/big
// transcription of (Π s_i)^e · (Π H(ID_i))^{-c} mod n, returning nil for a
// nil challenge, a size mismatch or a response outside (0, n). It computes
// negative challenges too (they then fail the hash check), so it is
// independent of the core's range check.
func refCommitment(pub Params, ids []string, responses []*big.Int, c *big.Int) *big.Int {
	if c == nil || len(ids) == 0 || len(ids) != len(responses) {
		return nil
	}
	sProd, hProd := big.NewInt(1), big.NewInt(1)
	for i, s := range responses {
		if s == nil || s.Sign() <= 0 || s.Cmp(pub.N) >= 0 {
			return nil
		}
		sProd.Mod(sProd.Mul(sProd, s), pub.N)
		hProd.Mod(hProd.Mul(hProd, hashx.IdentityDigest(ids[i], pub.N)), pub.N)
	}
	hc := new(big.Int).Exp(hProd, new(big.Int).Abs(c), pub.N)
	if c.Sign() >= 0 {
		hc.ModInverse(hc, pub.N)
	}
	lhs := new(big.Int).Exp(sProd, pub.E, pub.N)
	return lhs.Mod(lhs.Mul(lhs, hc), pub.N)
}

// TestBatchVerify is the differential test of the one verifier core:
// GroupVerifier.BatchVerify (equation 2) and Verify (its one-identity case
// over a message) must give the verdict of the math/big reference on
// valid batches of every ring size, on corrupted, impostor and re-bound
// inputs, and on out-of-range responses and challenges; wherever the core
// computes, its commitment must equal the reference bit for bit.
func TestBatchVerify(t *testing.T) {
	type tcase struct {
		name      string
		ids       []string
		responses []*big.Int
		c         *big.Int
		z         *big.Int // batch binding; nil selects Verify over msg
		msg       []byte
		accept    bool
	}
	var cases []tcase
	// mutate adds the hostile variants of an honest case.
	mutate := func(base tcase, pub Params) {
		at := len(base.responses) / 2
		with := func(name string, s, c *big.Int) tcase {
			v := base
			v.name = base.name + "/" + name
			v.responses = append([]*big.Int(nil), base.responses...)
			if s != nil {
				v.responses[at] = s
			}
			v.c, v.accept = c, false
			return v
		}
		cases = append(cases,
			with("corrupted response", new(big.Int).Add(base.responses[at], mathx.One), base.c),
			with("s=0", big.NewInt(0), base.c),
			with("s=N", pub.N, base.c),
			with("c=0", nil, big.NewInt(0)),
			with("c=nil", nil, nil),
			with("c negative", nil, new(big.Int).Neg(base.c)))
		impostor := base
		impostor.name = base.name + "/impostor"
		impostor.ids = append([]string(nil), base.ids...)
		impostor.ids[at] = "mallory"
		impostor.accept = false
		rebound := base
		rebound.name = base.name + "/tampered binding"
		if base.z != nil {
			rebound.z = new(big.Int).Add(base.z, mathx.One)
		} else {
			rebound.msg = []byte("tampered")
		}
		rebound.accept = false
		cases = append(cases, impostor, rebound)
	}

	sk := testKey(t, "alice")
	msg := []byte("join request")
	sig, err := sk.Sign(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	single := tcase{name: "Verify", ids: []string{"alice"}, responses: []*big.Int{sig.S}, c: sig.C, msg: msg, accept: true}
	cases = append(cases, single)
	mutate(single, sk.Pub)
	for _, n := range []int{1, 2, 16, 40} {
		pub, ids, responses, c, z := batchFixture(t, n)
		batch := tcase{name: fmt.Sprintf("n=%d", n), ids: ids, responses: responses, c: c, z: z, accept: true}
		cases = append(cases, batch)
		if n == 16 {
			mutate(batch, pub)
		}
	}

	pub := sk.Pub
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bound := tc.msg
			if tc.z != nil {
				bound = hashx.BigBytes(tc.z)
			}
			ref := refCommitment(pub, tc.ids, tc.responses, tc.c)
			refAccepts := ref != nil && hashx.Challenge(hashx.TagChallenge, hashx.BigBytes(ref), bound).Cmp(tc.c) == 0
			if refAccepts != tc.accept {
				t.Fatalf("reference verdict %v, want %v", refAccepts, tc.accept)
			}
			gv, err := NewGroupVerifier(pub, tc.ids)
			if err != nil {
				t.Fatal(err)
			}
			if lhs, err := gv.commitment(tc.responses, tc.c); err == nil && lhs.Cmp(ref) != 0 {
				t.Fatalf("core commitment diverges from the reference")
			}
			if tc.z != nil {
				err = gv.BatchVerify(tc.responses, tc.c, tc.z)
			} else {
				err = Verify(pub, tc.ids[0], tc.msg, &Signature{S: tc.responses[0], C: tc.c})
			}
			if (err == nil) != tc.accept {
				t.Fatalf("verdict %v (err %v), want %v", err == nil, err, tc.accept)
			}
		})
	}
}

// TestBatchVerifySizeMismatch checks the verifier refuses an empty signer
// set and a response count that differs from its signer count.
func TestBatchVerifySizeMismatch(t *testing.T) {
	pub, ids, responses, c, z := batchFixture(t, 3)
	if _, err := NewGroupVerifier(pub, nil); err == nil {
		t.Fatal("empty signer set accepted")
	}
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range [][]*big.Int{nil, responses[:2], append(responses[:3:3], responses[0])} {
		if err := gv.BatchVerify(rs, c, z); err == nil {
			t.Fatalf("%d responses accepted by a %d-signer verifier", len(rs), len(ids))
		}
	}
}

// TestGroupVerifierMatchesBatchVerify checks the cached verifier gives the
// verdict of the math/big reference for equation (2) on an honest batch
// and on one with a corrupted response, and refuses a short batch and an
// empty signer set.
func TestGroupVerifierMatchesBatchVerify(t *testing.T) {
	pub, ids, responses, c, z := batchFixture(t, 5)
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	refVerify := func(rs []*big.Int) bool {
		ref := refCommitment(pub, ids, rs, c)
		return ref != nil && GroupChallenge(ref, z).Cmp(c) == 0
	}
	if !refVerify(responses) {
		t.Fatal("reference rejected an honest batch")
	}
	if err := gv.BatchVerify(responses, c, z); err != nil {
		t.Fatalf("GroupVerifier.BatchVerify: %v", err)
	}
	bad := append([]*big.Int(nil), responses...)
	bad[2] = new(big.Int).Add(bad[2], mathx.One)
	if err := gv.BatchVerify(bad, c, z); err == nil {
		t.Fatal("corrupted response accepted")
	}
	if refVerify(bad) {
		t.Fatal("reference accepted corrupted response")
	}
	if err := gv.BatchVerify(responses[:3], c, z); err == nil {
		t.Fatal("short batch accepted")
	}
	if _, err := NewGroupVerifier(pub, nil); err == nil {
		t.Fatal("empty signer set accepted")
	}
}

// TestGroupVerifierRejectsBadChallenge feeds the verifier challenges that
// no honest round produces: nil and negative ones are malformed, one of
// 2^160 or more can never equal a challenge hash. Each must come back as
// an error, never a panic.
func TestGroupVerifierRejectsBadChallenge(t *testing.T) {
	pub, ids, responses, c, z := batchFixture(t, 3)
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := gv.BatchVerify(responses, c, z); err != nil {
		t.Fatalf("honest batch rejected: %v", err)
	}
	bound := new(big.Int).Lsh(mathx.One, hashx.ChallengeBits)
	bad := map[string]*big.Int{
		"nil":        nil,
		"-1":         big.NewInt(-1),
		"-c":         new(big.Int).Neg(c),
		"2^160":      bound,
		"c+2^160":    new(big.Int).Add(c, bound),
		"2^1024 + 1": new(big.Int).Add(new(big.Int).Lsh(mathx.One, 1024), mathx.One),
	}
	for name, bc := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("c = %s panicked: %v", name, r)
				}
			}()
			if err := gv.BatchVerify(responses, bc, z); err == nil {
				t.Errorf("c = %s accepted", name)
			}
		}()
	}
}

// TestVerifyRejectsOversizedChallenge sends a signature whose challenge is
// 64 KiB long, as a hostile peer may put on the wire: it must fail the
// range check, which runs before any exponentiation, rather than be
// raised to a 2^19-bit power first.
func TestVerifyRejectsOversizedChallenge(t *testing.T) {
	sk := testKey(t, "alice")
	msg := []byte("m")
	sig, err := sk.Sign(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	huge := new(big.Int).SetBytes(bytes.Repeat([]byte{0xa5}, 64<<10))
	if err := Verify(sk.Pub, "alice", msg, &Signature{S: sig.S, C: huge}); !errors.Is(err, errChallengeRange) {
		t.Fatalf("64 KiB challenge: got %v, want %v", err, errChallengeRange)
	}
}

// TestNegativePublicExponentRejected checks that the Montgomery-engine
// paths, whose exponentiation takes only non-negative exponents, turn a
// nil or negative public exponent into an error rather than a panic.
func TestNegativePublicExponentRejected(t *testing.T) {
	sk := testKey(t, "u1")
	sig, err := sk.Sign(rand.Reader, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*big.Int{nil, big.NewInt(-65537)} {
		pub := Params{N: sk.Pub.N, E: e}
		if _, _, err := Commitment(rand.Reader, pub); err == nil {
			t.Errorf("Commitment accepted e = %v", e)
		}
		if _, err := NewGroupVerifier(pub, []string{"u1"}); err == nil {
			t.Errorf("NewGroupVerifier accepted e = %v", e)
		}
		if err := Verify(pub, "u1", []byte("m"), sig); err == nil {
			t.Errorf("Verify accepted e = %v", e)
		}
	}
}

func TestCommitmentInRange(t *testing.T) {
	pub := ParamsFrom(params.Default().RSA)
	for i := 0; i < 10; i++ {
		tau, ti, err := Commitment(rand.Reader, pub)
		if err != nil {
			t.Fatal(err)
		}
		if tau.Sign() <= 0 || tau.Cmp(pub.N) >= 0 || ti.Sign() <= 0 || ti.Cmp(pub.N) >= 0 {
			t.Fatal("commitment out of range")
		}
	}
}

func BenchmarkSign(b *testing.B) {
	sk := testKey(b, "bench")
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Sign(rand.Reader, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	sk := testKey(b, "bench")
	msg := []byte("benchmark message")
	sig, _ := sk.Sign(rand.Reader, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(sk.Pub, "bench", msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchVerify100(b *testing.B) {
	pub, ids, responses, c, z := batchFixture(b, 100)
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gv.BatchVerify(responses, c, z); err != nil {
			b.Fatal(err)
		}
	}
}
