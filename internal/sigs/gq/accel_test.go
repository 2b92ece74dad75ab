package gq

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"idgka/internal/mathx"
)

// respondRef is the big.Int reference for Respond: τ·S_ID^c mod N.
func respondRef(sk *PrivateKey, tau mathx.Scalar, c *big.Int) *big.Int {
	s := new(big.Int).Exp(sk.S.BigVarTime(), c, sk.Pub.N)
	s.Mul(s, tau.BigVarTime())
	return s.Mod(s, sk.Pub.N)
}

// challenges returns 0, 1 and eight random 160-bit challenges.
func challenges(t testing.TB) []*big.Int {
	cs := []*big.Int{big.NewInt(0), big.NewInt(1)}
	for i := 0; i < 8; i++ {
		c, err := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestPrecomputeRespondTransparent checks that Respond, a walk of S_ID's
// comb table, equals τ·S_ID^c mod N on big.Int across random challenges
// and edges.
func TestPrecomputeRespondTransparent(t *testing.T) {
	sk := testKey(t, "accel-alice")
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range challenges(t) {
		if got := sk.Respond(tau, c); got.Cmp(respondRef(sk, tau, c)) != 0 {
			t.Fatalf("Respond diverges from the big.Int reference for c=%v", c)
		}
	}
	// Tabled responses still verify.
	msg := []byte("accelerated signing")
	sig, err := sk.Sign(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sk.Pub, sk.ID, msg, sig); err != nil {
		t.Fatalf("tabled signature rejected: %v", err)
	}
}

// TestRespondTablePublishedOnce races eight first responses of a fresh
// key: every response equals the big.Int reference, and exactly one comb
// table of S_ID is published, the same one on every later read.
func TestRespondTablePublishedOnce(t *testing.T) {
	sk := testKey(t, "accel-race")
	if sk.fixedBase.Load() != nil {
		t.Fatal("table published before the first Respond")
	}
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		t.Fatal(err)
	}
	cs := challenges(t)[2:]
	got := make([]*big.Int, len(cs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = sk.Respond(tau, cs[i])
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range cs {
		if got[i].Cmp(respondRef(sk, tau, c)) != 0 {
			t.Fatalf("worker %d: Respond diverges from the big.Int reference", i)
		}
	}
	tab := sk.fixedBase.Load()
	if tab == nil {
		t.Fatal("no table published after the first Respond")
	}
	for _, c := range cs[:4] {
		sk.Respond(tau, c)
		if sk.fixedBase.Load() != tab {
			t.Fatal("a second table was published")
		}
	}
}

// TestRespondAllocsConstant pins the allocations of a tabled response:
// one constant, whatever the challenge's digit count.
func TestRespondAllocsConstant(t *testing.T) {
	sk := testKey(t, "accel-allocs")
	sk.table() // built outside the measured runs
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

// BenchmarkRespondNaive times the big.Int reference response.
func BenchmarkRespondNaive(b *testing.B) {
	sk := testKey(b, "bench-respond")
	tau, _, err := Commitment(rand.Reader, sk.Pub)
	if err != nil {
		b.Fatal(err)
	}
	c, _ := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respondRef(sk, tau, c)
	}
}

func BenchmarkRespondPrecomputed(b *testing.B) {
	sk := testKey(b, "bench-respond")
	sk.table()
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
