package gq

import (
	"crypto/rand"
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
	sig, err := sk.Sign(rand.Reader, msg)
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
