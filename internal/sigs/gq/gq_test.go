package gq

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/params"
	"idgka/internal/redacttest"
)

func testKey(t testing.TB, id string) *PrivateKey {
	t.Helper()
	sk, err := Extract(params.Default().RSA, id)
	if err != nil {
		t.Fatalf("Extract(%q): %v", id, err)
	}
	return sk
}

// TestRedaction formats the comb table Respond builds for S_ID with
// every verb and placement and looks for S_ID and every Montgomery image
// of it, whose words or limbs the table's entries hold.
func TestRedaction(t *testing.T) {
	sk := testKey(t, "redact-01")
	redacttest.Check(t, "FixedBaseTable", sk.table(), redacttest.Montgomery(sk.S.BigVarTime(), sk.Pub.N)...)
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
	back := new(big.Int).Exp(sk.S.BigVarTime(), rp.E, rp.N)
	if back.Cmp(hashx.IdentityDigest("alice", rp.N)) != 0 {
		t.Fatal("extracted key does not invert to identity digest")
	}
}

// batchFixture builds one honest keying round for n signers: commitments,
// the common challenge c = H(T, Z) and every response, as rounds 1-2 of
// the protocol would.
func batchFixture(t testing.TB, n int) (pub *mathx.RSAParams, ids []string, responses []*big.Int, c, z *big.Int) {
	t.Helper()
	ids = make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch-%03d", i)
	}
	pub, responses, c, z = batchRound(t, ids)
	return pub, ids, responses, c, z
}

// batchRound is batchFixture for a given signer set.
func batchRound(t testing.TB, ids []string) (pub *mathx.RSAParams, responses []*big.Int, c, z *big.Int) {
	t.Helper()
	pub = params.Default().RSA.Public()
	n := len(ids)
	taus := make([]mathx.Scalar, n)
	ts := make([]*big.Int, n)
	for i := range ids {
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
	return pub, responses, c, z
}

// refCommitment is the reference for the Montgomery core: a plain math/big
// transcription of (Π s_i)^e · (Π H(ID_i))^{-c} mod n, returning nil for a
// nil challenge, a size mismatch or a response outside (0, n). It computes
// negative challenges too (they then fail the hash check), so it is
// independent of the core's range check.
func refCommitment(pub *mathx.RSAParams, ids []string, responses []*big.Int, c *big.Int) *big.Int {
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
// GroupVerifier.BatchVerifyPacked (equation 2) and Verify (its
// one-identity case over a message) must give the verdict of the math/big reference on
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
	mutate := func(base tcase, pub *mathx.RSAParams) {
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
			if lhs, err := gv.commitmentOf(tc.responses, tc.c); err == nil && lhs.Cmp(ref) != 0 {
				t.Fatalf("core commitment diverges from the reference")
			}
			if tc.z != nil {
				err = batchVerify(gv, tc.responses, tc.c, tc.z)
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
		if err := batchVerify(gv, rs, c, z); err == nil {
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
	if err := batchVerify(gv, responses, c, z); err != nil {
		t.Fatalf("GroupVerifier.BatchVerifyPacked: %v", err)
	}
	bad := append([]*big.Int(nil), responses...)
	bad[2] = new(big.Int).Add(bad[2], mathx.One)
	if err := batchVerify(gv, bad, c, z); err == nil {
		t.Fatal("corrupted response accepted")
	}
	if refVerify(bad) {
		t.Fatal("reference accepted corrupted response")
	}
	if err := batchVerify(gv, responses[:3], c, z); err == nil {
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
	if err := batchVerify(gv, responses, c, z); err != nil {
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
			if err := batchVerify(gv, responses, bc, z); err == nil {
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
		pub := &mathx.RSAParams{N: sk.Pub.N, E: e}
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
	pub := params.Default().RSA.Public()
	for i := 0; i < 10; i++ {
		tau, ti, err := Commitment(rand.Reader, pub)
		if err != nil {
			t.Fatal(err)
		}
		if tau := tau.BigVarTime(); tau.Sign() <= 0 || tau.Cmp(pub.N) >= 0 || ti.Sign() <= 0 || ti.Cmp(pub.N) >= 0 {
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
		if err := batchVerify(gv, responses, c, z); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGroupVerifierPromotion checks the fixed-base table of hInv: none is
// built before the promoteAfter-th check, the promoteAfter-th attaches
// it, and the commitment equals the math/big reference bit for bit on
// every check before, at and after promotion.
func TestGroupVerifierPromotion(t *testing.T) {
	for _, n := range []int{1, 4} {
		pub, ids, responses, c, z := batchFixture(t, n)
		gv, err := NewGroupVerifier(pub, ids)
		if err != nil {
			t.Fatal(err)
		}
		ref := refCommitment(pub, ids, responses, c)
		for use := 1; use <= promoteAfter+3; use++ {
			lhs, err := gv.commitmentOf(responses, c)
			if err != nil {
				t.Fatalf("n=%d use %d: %v", n, use, err)
			}
			if lhs.Cmp(ref) != 0 {
				t.Fatalf("n=%d use %d: commitment diverges from the reference", n, use)
			}
			if tabled := gv.tab.Load() != nil; tabled != (use >= promoteAfter) {
				t.Fatalf("n=%d use %d: tabled = %v", n, use, tabled)
			}
		}
		top := new(big.Int).Lsh(mathx.One, hashx.ChallengeBits)
		if tab := gv.tab.Load(); !tab.Covers(new(big.Int).Sub(top, mathx.One)) || tab.Covers(top) {
			t.Fatalf("table does not cover exactly the %d-bit challenges", hashx.ChallengeBits)
		}
		if err := batchVerify(gv, responses, c, z); err != nil {
			t.Fatalf("n=%d: tabled verifier rejected an honest batch: %v", n, err)
		}
	}
}

// TestPromotedVerifierRejectsHostileInput feeds a promoted verifier the
// inputs a hostile peer can put on the wire. Out-of-range responses and
// challenges fail the range check, which runs before any power, so no
// wire challenge reaches the table's big.Int fallback; they do not count
// towards promotion either. A corrupted response and an impostor
// identity walk the table and fail the hash.
func TestPromotedVerifierRejectsHostileInput(t *testing.T) {
	pub, ids, responses, c, z := batchFixture(t, 4)
	gv, err := NewGroupVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	bound := new(big.Int).Lsh(mathx.One, hashx.ChallengeBits)
	with := func(at int, s *big.Int) []*big.Int {
		rs := append([]*big.Int(nil), responses...)
		rs[at] = s
		return rs
	}
	outOfRange := []struct {
		name      string
		responses []*big.Int
		c         *big.Int
	}{
		{"s=0", with(1, big.NewInt(0)), c},
		{"s=N", with(2, pub.N), c},
		{"s negative", with(0, big.NewInt(-3)), c},
		{"c negative", responses, new(big.Int).Neg(c)},
		{"c=-1", responses, big.NewInt(-1)},
		{"c=2^160", responses, bound},
		{"c 161 bits", responses, new(big.Int).Add(c, bound)},
	}
	for _, promoted := range []bool{false, true} {
		for _, tc := range outOfRange {
			if _, err := gv.commitmentOf(tc.responses, tc.c); err == nil || strings.Contains(err.Error(), "verification failed") {
				t.Fatalf("promoted=%v %s: got %v, want a range error", promoted, tc.name, err)
			}
			if err := batchVerify(gv, tc.responses, tc.c, z); err == nil {
				t.Fatalf("promoted=%v %s: accepted", promoted, tc.name)
			}
		}
		if !promoted {
			if n := gv.uses.Load(); n != 0 {
				t.Fatalf("%d rejected checks counted towards promotion", n)
			}
			for i := 0; i < promoteAfter; i++ {
				if err := batchVerify(gv, responses, c, z); err != nil {
					t.Fatal(err)
				}
			}
			if gv.tab.Load() == nil {
				t.Fatal("not promoted after promoteAfter honest checks")
			}
		}
	}
	corrupt := with(3, new(big.Int).Add(responses[3], mathx.One))
	if err := batchVerify(gv, corrupt, c, z); err == nil {
		t.Fatal("promoted verifier accepted a corrupted response")
	}
	impostor := append([]string(nil), ids...)
	impostor[0] = "mallory"
	igv, err := NewGroupVerifier(pub, impostor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= promoteAfter; i++ {
		if err := batchVerify(igv, responses, c, z); err == nil {
			t.Fatalf("check %d: impostor roster accepted", i+1)
		}
	}
	if igv.tab.Load() == nil {
		t.Fatal("impostor verifier not promoted")
	}
}

// raceRuns numbers the runs of TestSharedVerifierRace.
var raceRuns atomic.Int64

// TestSharedVerifierRace has many goroutines verify through one shared
// verifier across its promotion point, honest and corrupted batches
// interleaved; run under -race it checks the lazy table attachment.
func TestSharedVerifierRace(t *testing.T) {
	// A signer set no other test or repetition shares, so the shared
	// verifier starts untabled.
	run := raceRuns.Add(1)
	ids := []string{fmt.Sprintf("race-%d-a", run), fmt.Sprintf("race-%d-b", run), fmt.Sprintf("race-%d-c", run)}
	pub, responses, c, z := batchRound(t, ids)
	corrupt := append([]*big.Int(nil), responses...)
	corrupt[1] = new(big.Int).Add(corrupt[1], mathx.One)
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				gv, err := SharedVerifier(pub, ids)
				if err != nil {
					errs <- err
					return
				}
				if (w+r)%3 == 0 {
					err = batchVerify(gv, corrupt, c, z)
					if err == nil {
						err = errors.New("corrupted batch accepted")
					} else {
						err = nil
					}
				} else {
					err = batchVerify(gv, responses, c, z)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	gv, err := SharedVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	if gv.tab.Load() == nil {
		t.Fatalf("shared verifier not promoted after %d checks", workers*rounds)
	}
}

// TestSharedVerifierCacheBounded keys more distinct signer sets than the
// shared cache holds: it never grows past its bound, an evicted set is
// rebuilt on its next use and verifies correctly, and two parameter sets
// never share an entry.
func TestSharedVerifierCacheBounded(t *testing.T) {
	pub, ids, responses, c, z := batchFixture(t, 2)
	cacheLen := func() int {
		verifiers.mu.Lock()
		defer verifiers.mu.Unlock()
		return verifiers.lru.Len()
	}
	first, err := SharedVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < verifierCacheSize+4; i++ {
		if _, err := SharedVerifier(pub, []string{fmt.Sprintf("bound-%03d", i)}); err != nil {
			t.Fatal(err)
		}
		if n := cacheLen(); n > verifierCacheSize {
			t.Fatalf("after %d sets: %d cached verifiers, bound %d", i+1, n, verifierCacheSize)
		}
	}
	if n := cacheLen(); n != verifierCacheSize {
		t.Fatalf("%d cached verifiers, want the bound %d", n, verifierCacheSize)
	}
	again, err := SharedVerifier(pub, ids)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("the least recently used set was not evicted")
	}
	if err := batchVerify(again, responses, c, z); err != nil {
		t.Fatalf("rebuilt verifier rejected an honest batch: %v", err)
	}
	if same, _ := SharedVerifier(pub, ids); same != again {
		t.Fatal("a cached set was rebuilt")
	}
	other := &mathx.RSAParams{N: new(big.Int).Add(pub.N, big.NewInt(2)), E: pub.E}
	if gv, err := SharedVerifier(other, ids); err == nil && gv == again {
		t.Fatal("two moduli share one cache entry")
	}
	if gv, _ := SharedVerifier(&mathx.RSAParams{N: pub.N, E: big.NewInt(3)}, ids); gv == again {
		t.Fatal("two public exponents share one cache entry")
	}
}

// TestSharedVerifierHitAllocs pins the cache's hit path: looking up a
// cached signer set allocates nothing, from one signer (gq.Verify) up to
// a 32-member roster.
func TestSharedVerifierHitAllocs(t *testing.T) {
	pub := params.Default().RSA.Public()
	for _, n := range []int{1, 4, 32} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("hit-allocs-%02d", i)
		}
		gv, err := SharedVerifier(pub, ids)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if again, _ := SharedVerifier(pub, ids); again != gv {
				t.Fatal("a cached set was rebuilt")
			}
		})
		if allocs != 0 {
			t.Errorf("%d signers: a cache hit makes %v allocations, want 0", n, allocs)
		}
	}
}

// BenchmarkBatchVerify4 times eq. 2 for a 4-member roster on a verifier
// held below its promotion point and on a promoted one, and the table
// build: the measurement behind promoteAfter.
func BenchmarkBatchVerify4(b *testing.B) {
	pub, ids, responses, c, z := batchFixture(b, 4)
	b.Run("untabled", func(b *testing.B) {
		gv, err := NewGroupVerifier(pub, ids)
		if err != nil {
			b.Fatal(err)
		}
		gv.uses.Store(promoteAfter) // past the promoting check: never tabled
		packed := pack(gv.mo, responses)
		for i := 0; i < b.N; i++ {
			if err := gv.BatchVerifyPacked(packed, c, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tabled", func(b *testing.B) {
		gv, err := NewGroupVerifier(pub, ids)
		if err != nil {
			b.Fatal(err)
		}
		packed := pack(gv.mo, responses)
		for i := 0; i < promoteAfter; i++ {
			gv.BatchVerifyPacked(packed, c, z)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := gv.BatchVerifyPacked(packed, c, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table-build", func(b *testing.B) {
		gv, err := NewGroupVerifier(pub, ids)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := mathx.NewFixedBaseTable(gv.hInv, gv.mo, hashx.ChallengeBits); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pack loads big.Int responses one per slot of a Packed of N's Modulus
// mo, as the ring flow decodes them off the wire; a response out of
// range leaves its slot empty, which the verifier refuses.
func pack(mo *mathx.Modulus, responses []*big.Int) mathx.Packed {
	packed := mo.NewPacked(len(responses))
	for i, s := range responses {
		packed.Load(i, s)
	}
	return packed
}

// batchVerify runs BatchVerifyPacked on big.Int responses.
func batchVerify(gv *GroupVerifier, responses []*big.Int, c, z *big.Int) error {
	return gv.BatchVerifyPacked(pack(gv.mo, responses), c, z)
}

// commitmentOf runs the commitment core on big.Int responses.
func (gv *GroupVerifier) commitmentOf(responses []*big.Int, c *big.Int) (*big.Int, error) {
	return gv.commitment(pack(gv.mo, responses), c)
}
