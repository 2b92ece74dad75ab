package mathx_test

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/mathx"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// TestHotPathAllocsConstant pins the allocations of a generator power and
// a comb walk with a factor, a modular product over big.Ints and over
// packed limbs, a variable-base power, the fixed-window pair and single
// power and a tabled eq. 2 check: the count is a small constant,
// independent of the exponent's size, of the slice length and of the
// roster size. The radix-2^52 chains keep their scratch on the stack.
func TestHotPathAllocsConstant(t *testing.T) {
	sg, err := mathx.GenerateSchnorrGroup(rand.Reader, 1024, 160)
	if err != nil {
		t.Fatal(err)
	}
	sg.Exp(mathx.One) // builds the generator's comb table
	comb := mathx.GeneratorTable(sg)
	randBits := func(n int) *big.Int {
		v, err := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, uint(n)))
		if err != nil {
			t.Fatal(err)
		}
		return v.SetBit(v, n-1, 1)
	}
	var expAllocs, combAllocs []float64
	y := randBits(1023)
	for _, eBits := range []int{1, 40, 160} {
		e := randBits(eBits)
		expAllocs = append(expAllocs, testing.AllocsPerRun(20, func() { sg.Exp(e) }))
		combAllocs = append(combAllocs, testing.AllocsPerRun(20, func() { comb.ExpMul(e, y) }))
	}
	mo := sg.Mont()
	var prodAllocs, packedAllocs []float64
	for _, n := range []int{1, 8, 64} {
		vals := make([]*big.Int, n)
		flat := mo.NewPacked(n)
		for i := range vals {
			vals[i] = randBits(1023)
			flat.Load(i, vals[i])
		}
		prodAllocs = append(prodAllocs, testing.AllocsPerRun(20, func() { mo.Product(vals) }))
		packedAllocs = append(packedAllocs, testing.AllocsPerRun(20, func() { mo.ProductOf(flat) }))
	}
	// A variable-base power carves its odd-power table and accumulator
	// from one array, whatever the window width the exponent selects.
	base := mo.ToMont(randBits(1023))
	var varAllocs []float64
	for _, eBits := range []int{17, 160, 1024} {
		e := randBits(eBits)
		varAllocs = append(varAllocs, testing.AllocsPerRun(20, func() { mo.ExpElem(base, e) }))
	}
	// The fixed-window powers of secret exponents: one result
	// allocation, and one table where the chains run on montMul.
	other := mo.Mul(base, base)
	var pairAllocs, fixedAllocs []float64
	for _, eBits := range []int{17, 160, 1024} {
		q := randBits(eBits)
		draw := func() mathx.Scalar {
			s, err := mathx.DrawScalar(rand.Reader, q)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		e1, e2 := draw(), draw()
		pairAllocs = append(pairAllocs, testing.AllocsPerRun(20, func() { mo.ExpPair(base, e1, other, e2.Neg()) }))
		fixedAllocs = append(fixedAllocs, testing.AllocsPerRun(20, func() { mo.ExpFixed(base, e1) }))
	}
	// Eq. 2 on a verifier well past its promotion to a fixed-base table
	// of the inverse identity product.
	var eq2Allocs []float64
	for _, n := range []int{2, 16, 40} {
		gv, responses, c, z := tabledRound(t, n)
		eq2Allocs = append(eq2Allocs, testing.AllocsPerRun(20, func() {
			if err := gv.BatchVerifyPacked(responses, c, z); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for name, got := range map[string][]float64{"SchnorrGroup.Exp": expAllocs, "FixedBaseTable.ExpMul": combAllocs, "Modulus.Product": prodAllocs, "Modulus.ProductOf": packedAllocs, "Modulus.ExpElem": varAllocs, "Modulus.ExpPair": pairAllocs, "Modulus.ExpFixed": fixedAllocs} {
		t.Logf("%s allocations: %v", name, got)
		for _, a := range got {
			if a != got[0] || a > 2 {
				t.Errorf("%s allocations %v: want one constant <= 2 across sizes", name, got)
			}
		}
	}
	t.Logf("tabled GroupVerifier.BatchVerifyPacked allocations: %v", eq2Allocs)
	for _, a := range eq2Allocs {
		if a != eq2Allocs[0] {
			t.Errorf("tabled GroupVerifier.BatchVerifyPacked allocations %v: want one constant across roster sizes", eq2Allocs)
		}
	}
}

// tabledRound builds one honest keying round of n signers, its responses
// packed one per slot, and a verifier for it that has served enough
// checks to carry its fixed-base table.
func tabledRound(t *testing.T, n int) (gv *gq.GroupVerifier, responses mathx.Packed, c, z *big.Int) {
	t.Helper()
	rp := params.Default().RSA
	ids := make([]string, n)
	taus := make([]mathx.Scalar, n)
	ts := make([]*big.Int, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("allocs-%02d", i)
		tau, ti, err := gq.Commitment(rand.Reader, rp)
		if err != nil {
			t.Fatal(err)
		}
		taus[i], ts[i] = tau, ti
	}
	z = big.NewInt(0xfeed)
	c = gq.GroupChallenge(mathx.ProductMod(ts, rp.N), z)
	responses = rp.Mont().NewPacked(n)
	for i, id := range ids {
		sk, err := gq.Extract(rp, id)
		if err != nil {
			t.Fatal(err)
		}
		if !responses.Load(i, sk.Respond(taus[i], c)) {
			t.Fatal("response out of range")
		}
	}
	gv, err := gq.NewGroupVerifier(rp, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // well past the promotion point
		if err := gv.BatchVerifyPacked(responses, c, z); err != nil {
			t.Fatal(err)
		}
	}
	return gv, responses, c, z
}
