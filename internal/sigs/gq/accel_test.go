package gq

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/mathx"
)

// TestPrecomputeRespondTransparent checks the fixed-base response path is
// bit-identical to the naive one across random challenges and edges.
func TestPrecomputeRespondTransparent(t *testing.T) {
	sk := testKey(t, "accel-alice")
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*big.Int{big.NewInt(0), big.NewInt(1)}
	for i := 0; i < 8; i++ {
		c, err := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	naive := make([]*big.Int, len(cs))
	for i, c := range cs {
		naive[i] = sk.Respond(tau, c)
	}
	if sk.Precompute() == nil {
		t.Fatal("Precompute returned nil")
	}
	for i, c := range cs {
		if got := sk.Respond(tau, c); got.Cmp(naive[i]) != 0 {
			t.Fatalf("precomputed Respond diverges for c=%v", c)
		}
	}
	// Precomputed responses still verify.
	msg := []byte("accelerated signing")
	sig, err := sk.SignDefault(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sk.Pub, sk.ID, msg, sig); err != nil {
		t.Fatalf("precomputed signature rejected: %v", err)
	}
}

// TestRespondAllocsConstant pins the allocations of a precomputed
// response: one constant, whatever the challenge's digit count.
func TestRespondAllocsConstant(t *testing.T) {
	sk := testKey(t, "accel-allocs")
	if sk.Precompute() == nil {
		t.Fatal("Precompute returned nil")
	}
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, cBits := range []int{1, 64, 160} {
		c := new(big.Int).SetBit(new(big.Int), cBits-1, 1)
		c.Sub(c.Lsh(c, 1), mathx.One) // cBits bits, every digit non-zero
		got = append(got, testing.AllocsPerRun(20, func() { sk.Respond(tau, c) }))
	}
	t.Logf("PrivateKey.Respond allocations: %v", got)
	for _, a := range got {
		if a != got[0] || a > 2 {
			t.Fatalf("PrivateKey.Respond allocations %v: want one constant <= 2 across challenge sizes", got)
		}
	}
}

// batchFixture builds a valid n-signer batch over the default parameters.
func batchFixture(t testing.TB, n int) (pub Params, ids []string, responses []*big.Int, c, z *big.Int) {
	pub = testKey(t, "seed").Pub
	ids = make([]string, n)
	taus := make([]*big.Int, n)
	ts := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("batch-%03d", i)
		tau, ti, err := Commitment(rand.Reader, pub)
		if err != nil {
			t.Fatal(err)
		}
		taus[i], ts[i] = tau, ti
	}
	z = big.NewInt(77)
	c = GroupChallenge(mathx.ProductMod(ts, pub.N), z)
	responses = make([]*big.Int, n)
	for i, id := range ids {
		responses[i] = testKey(t, id).Respond(taus[i], c)
	}
	return pub, ids, responses, c, z
}

// TestBatchVerifyRingSizes checks the per-call batch verifier and the
// cached roster verifier without a table (the engine's eq. 2 path) agree
// across ring sizes: both accept a valid batch and reject a corrupted one.
func TestBatchVerifyRingSizes(t *testing.T) {
	for _, n := range []int{2, 16, 40} {
		pub, ids, responses, c, z := batchFixture(t, n)
		gv, err := NewClaimBuilder(pub, ids)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]*big.Int(nil), responses...)
		bad[n/2] = new(big.Int).Add(bad[n/2], mathx.One)
		for name, verify := range map[string]func([]*big.Int) error{
			"BatchVerify":               func(rs []*big.Int) error { return BatchVerify(pub, ids, rs, c, z) },
			"GroupVerifier.BatchVerify": func(rs []*big.Int) error { return gv.BatchVerify(rs, c, z) },
		} {
			if err := verify(responses); err != nil {
				t.Fatalf("n=%d %s: valid batch rejected: %v", n, name, err)
			}
			if err := verify(bad); err == nil {
				t.Fatalf("n=%d %s: corrupted batch accepted", n, name)
			}
		}
	}
}

func BenchmarkRespondNaive(b *testing.B) {
	sk := testKey(b, "bench-respond")
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		b.Fatal(err)
	}
	c, _ := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Respond(tau, c)
	}
}

func BenchmarkRespondPrecomputed(b *testing.B) {
	sk := testKey(b, "bench-respond")
	sk.Precompute()
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		b.Fatal(err)
	}
	c, _ := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Respond(tau, c)
	}
}
