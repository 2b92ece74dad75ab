package gq

import (
	"crypto/rand"
	"math/big"
	"testing"

	"idgka/internal/mathx"
	"idgka/internal/params"
)

// buildBatch produces one honest keying round for the given signer set:
// commitments, the common challenge and every response, exactly as the
// protocol's rounds 1-2 would.
func buildBatch(t testing.TB, ids []string) (pub Params, responses []*big.Int, c, bigT, z *big.Int) {
	t.Helper()
	pub = ParamsFrom(params.Default().RSA)
	taus := make([]*big.Int, len(ids))
	ts := make([]*big.Int, len(ids))
	for i := range ids {
		tau, ti, err := Commitment(rand.Reader, pub)
		if err != nil {
			t.Fatal(err)
		}
		taus[i], ts[i] = tau, ti
	}
	bigT = mathx.ProductMod(ts, pub.N)
	z, err := mathx.RandUnit(rand.Reader, pub.N)
	if err != nil {
		t.Fatal(err)
	}
	c = GroupChallenge(bigT, z)
	responses = make([]*big.Int, len(ids))
	for i, id := range ids {
		responses[i] = testKey(t, id).Respond(taus[i], c)
	}
	return pub, responses, c, bigT, z
}

// TestGroupVerifierMatchesBatchVerify checks the cached verifier agrees
// with the uncached path on honest and corrupted batches.
func TestGroupVerifierMatchesBatchVerify(t *testing.T) {
	ids := []string{"u1", "u2", "u3", "u4", "u5"}
	pub, responses, c, _, z := buildBatch(t, ids)
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := BatchVerify(pub, ids, responses, c, z); err != nil {
		t.Fatalf("reference BatchVerify: %v", err)
	}
	if err := gv.BatchVerify(responses, c, z); err != nil {
		t.Fatalf("GroupVerifier.BatchVerify: %v", err)
	}
	bad := append([]*big.Int(nil), responses...)
	bad[2] = new(big.Int).Add(bad[2], big.NewInt(1))
	if err := gv.BatchVerify(bad, c, z); err == nil {
		t.Fatal("corrupted response accepted")
	}
	if BatchVerify(pub, ids, bad, c, z) == nil {
		t.Fatal("reference accepted corrupted response")
	}
	if err := gv.BatchVerify(responses[:3], c, z); err == nil {
		t.Fatal("short batch accepted")
	}
	if _, err := NewGroupVerifier(pub, nil); err == nil {
		t.Fatal("empty signer set accepted")
	}
}

// TestClaimMatchesBatchVerify checks the algebraic claim form gives the
// same verdict as the hash-form equation (2) when c = H(T, Z).
func TestClaimMatchesBatchVerify(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	pub, responses, c, bigT, _ := buildBatch(t, ids)
	claim, err := NewClaim(pub, ids, responses, c, bigT)
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Verify(); err != nil {
		t.Fatalf("honest claim rejected: %v", err)
	}
	bad := *claim
	bad.SProd = new(big.Int).Add(claim.SProd, big.NewInt(1))
	if bad.Verify() == nil {
		t.Fatal("corrupted claim accepted")
	}
	// The cached builder must produce a claim with the same verdicts and
	// the same algebraic content, plus the cached inverse.
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := gv.NewClaim(responses, c, bigT)
	if err != nil {
		t.Fatal(err)
	}
	if cached.SProd.Cmp(claim.SProd) != 0 || cached.HProd.Cmp(claim.HProd) != 0 {
		t.Fatal("cached claim diverges from NewClaim")
	}
	if cached.HInv == nil {
		t.Fatal("cached claim missing HInv")
	}
	if err := cached.Verify(); err != nil {
		t.Fatalf("cached claim rejected: %v", err)
	}
	badCached := *cached
	badCached.SProd = bad.SProd
	if badCached.Verify() == nil {
		t.Fatal("corrupted cached claim accepted")
	}
	if _, err := NewClaim(pub, ids, responses[:2], c, bigT); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := NewClaim(pub, ids, append(responses[:3:3], big.NewInt(0)), c, bigT); err == nil {
		t.Fatal("zero response accepted")
	}
}

// TestVerifyClaimsRLC checks the combined random-linear-combination
// settlement: all-honest batches pass, and a single corrupted claim is
// pinpointed through the individual fallback.
func TestVerifyClaimsRLC(t *testing.T) {
	sets := [][]string{
		{"g1a", "g1b", "g1c"},
		{"g2a", "g2b", "g2c", "g2d"},
		{"g3a", "g3b"},
		{"g4a", "g4b", "g4c", "g4d", "g4e"},
	}
	claims := make([]*Claim, len(sets))
	for i, ids := range sets {
		pub, responses, c, bigT, _ := buildBatch(t, ids)
		cl, err := NewClaim(pub, ids, responses, c, bigT)
		if err != nil {
			t.Fatal(err)
		}
		claims[i] = cl
	}
	if err := VerifyClaimsRLC(rand.Reader, claims); err != nil {
		t.Fatalf("honest claims rejected: %v", err)
	}
	// Corrupt one claim: the combined equation must fail and the fallback
	// must surface an error (the corrupt claim fails individually).
	good := claims[2].SProd
	claims[2] = &Claim{
		Pub:   claims[2].Pub,
		SProd: new(big.Int).Add(good, big.NewInt(1)),
		HProd: claims[2].HProd,
		C:     claims[2].C,
		T:     claims[2].T,
	}
	if err := VerifyClaimsRLC(rand.Reader, claims); err == nil {
		t.Fatal("corrupted claim batch accepted")
	}
	claims[2].SProd = good
	if err := VerifyClaimsRLC(rand.Reader, claims); err != nil {
		t.Fatalf("repaired claims rejected: %v", err)
	}
	// Degenerate shapes.
	if err := VerifyClaimsRLC(rand.Reader, nil); err != nil {
		t.Fatalf("empty claim set rejected: %v", err)
	}
	if err := VerifyClaimsRLC(rand.Reader, claims[:1]); err != nil {
		t.Fatalf("singleton claim set rejected: %v", err)
	}
	if err := VerifyClaimsRLC(rand.Reader, []*Claim{nil}); err == nil {
		t.Fatal("nil claim accepted")
	}
}

// BenchmarkAmortizedVerify compares one round's verification cost across
// the three tiers: the uncached batch check, the cached GroupVerifier,
// and the per-claim share of a 16-claim RLC settlement.
func BenchmarkAmortizedVerify(b *testing.B) {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = "m" + string(rune('a'+i))
	}
	pub, responses, c, bigT, z := buildBatch(b, ids)
	b.Run("batch-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := BatchVerify(pub, ids, responses, c, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group-verifier", func(b *testing.B) {
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
	})
	b.Run("claim-individual", func(b *testing.B) {
		gv, err := NewGroupVerifier(pub, ids)
		if err != nil {
			b.Fatal(err)
		}
		claim, err := gv.NewClaim(responses, c, bigT)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := claim.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rlc-16", func(b *testing.B) {
		gv, err := NewGroupVerifier(pub, ids)
		if err != nil {
			b.Fatal(err)
		}
		claim, err := gv.NewClaim(responses, c, bigT)
		if err != nil {
			b.Fatal(err)
		}
		claims := make([]*Claim, 16)
		for i := range claims {
			claims[i] = claim
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := VerifyClaimsRLC(rand.Reader, claims); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(16), "claims/op")
	})
}

// TestGroupVerifierRejectsBadChallenge feeds the cached verifier, with and
// without its fixed-base table, challenges that no honest round produces:
// nil and negative ones are malformed, one of 2^160 or more can never equal
// a challenge hash. Each must come back as an error, never a panic.
func TestGroupVerifierRejectsBadChallenge(t *testing.T) {
	ids := []string{"u1", "u2", "u3"}
	pub, responses, c, bigT, z := buildBatch(t, ids)
	tabled, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewClaimBuilder(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	bound := new(big.Int).Lsh(mathx.One, 160)
	bad := map[string]*big.Int{
		"nil":        nil,
		"-1":         big.NewInt(-1),
		"-c":         new(big.Int).Neg(c),
		"2^160":      bound,
		"c+2^160":    new(big.Int).Add(c, bound),
		"2^1024 + 1": new(big.Int).Add(new(big.Int).Lsh(mathx.One, 1024), mathx.One),
	}
	for name, gv := range map[string]*GroupVerifier{"tabled": tabled, "claim builder": plain} {
		if err := gv.BatchVerify(responses, c, z); err != nil {
			t.Fatalf("%s: honest batch rejected: %v", name, err)
		}
		for cName, bc := range bad {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: c = %s panicked: %v", name, cName, r)
					}
				}()
				if err := gv.BatchVerify(responses, bc, z); err == nil {
					t.Errorf("%s: c = %s accepted", name, cName)
				}
			}()
		}
	}
	// The claim form already rejects the malformed challenges the same way.
	for _, bc := range []*big.Int{nil, big.NewInt(-1)} {
		if cl, err := plain.NewClaim(responses, bc, bigT); err == nil {
			if cl.Verify() == nil {
				t.Errorf("claim with c = %v verified", bc)
			}
		}
	}
}

// TestNegativePublicExponentRejected checks that the Montgomery-engine
// paths, whose exponentiation takes only non-negative exponents, turn a
// nil or negative public exponent into an error rather than a panic.
func TestNegativePublicExponentRejected(t *testing.T) {
	good := ParamsFrom(params.Default().RSA)
	for _, e := range []*big.Int{nil, big.NewInt(-65537)} {
		pub := Params{N: good.N, E: e}
		if _, _, err := Commitment(rand.Reader, pub); err == nil {
			t.Errorf("Commitment accepted e = %v", e)
		}
		if _, err := NewClaimBuilder(pub, []string{"u1"}); err == nil {
			t.Errorf("NewClaimBuilder accepted e = %v", e)
		}
	}
}
