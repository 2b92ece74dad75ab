// Package bdkey implements the Burmester-Desmedt ring-key mathematics
// shared by the proposed protocol (internal/core), the signature-
// authenticated BD baselines and the SSN reconstruction
// (internal/baseline): the X_i round-2 values, the Lemma-1 product check,
// and the per-member group key computation.
//
// All functions work over an arbitrary modulus so the same code serves the
// Schnorr-group protocols (prime p) and the SSN reconstruction (composite
// N).
package bdkey

import (
	"errors"
	"fmt"
	"math/big"

	"idgka/internal/mathx"
)

// XValue computes the round-2 broadcast value
//
//	X_i = (z_next / z_prev)^{r} mod m,
//
// the quantity whose ring-product telescopes to 1 (Lemma 1).
func XValue(zNext, zPrev, r, m *big.Int) (*big.Int, error) {
	inv, err := mathx.ModInverse(zPrev, m)
	if err != nil {
		return nil, fmt.Errorf("bdkey: z_prev not invertible: %w", err)
	}
	base := new(big.Int).Mul(zNext, inv)
	base.Mod(base, m)
	return new(big.Int).Exp(base, r, m), nil
}

// XFromPowers assembles the round-2 broadcast value from the two directed
// DH edge powers the member raised itself: given a = z_next^r and
// b = z_prev^r it returns X = a·b^{-1} mod m — the same value XValue
// computes from the raw z's. Splitting the computation this way costs the
// same total work as XValue (two exponentiations and one inversion per
// member across the session, counting the key derivation) but leaves b =
// z_prev^{r} in the session state, which collapses the dominant
// z_prev^{n·r} term of equation (3) to b^n — a handful of squarings.
func XFromPowers(a, b, m *big.Int) (*big.Int, error) {
	inv, err := mathx.ModInverse(b, m)
	if err != nil {
		return nil, fmt.Errorf("bdkey: edge power not invertible: %w", err)
	}
	x := new(big.Int).Mul(a, inv)
	return x.Mod(x, m), nil
}

// CheckLemma1 verifies Π X_i ≡ 1 (mod m) — the paper's integrity check on
// the round-2 values. The order of xs is irrelevant.
func CheckLemma1(xs []*big.Int, m *big.Int) error {
	if mathx.ProductMod(xs, m).Cmp(mathx.One) != 0 {
		return errors.New("bdkey: Lemma 1 failed: ΠX_i ≠ 1, at least one X is corrupt")
	}
	return nil
}

// CheckLemma1Mont is CheckLemma1 over X values already converted into the
// Montgomery domain (the product check is domain-invariant: ΠX_i ≡ 1 iff
// the Montgomery product of the images equals the image of 1).
func CheckLemma1Mont(mo *mathx.Modulus, xs []mathx.Elem) error {
	if !mo.IsOne(mo.ProductElem(xs)) {
		return errors.New("bdkey: Lemma 1 failed: ΠX_i ≠ 1, at least one X is corrupt")
	}
	return nil
}

// Key computes member i's view of the Burmester-Desmedt group key
//
//	K_i = z_{i-1}^{n·r_i} · X_i^{n-1} · X_{i+1}^{n-2} ··· X_{i+n-2}^{1} mod m
//
// over a ring of n members; xs must be the X values in ring order
// (xs[j] = X_j) and i is the member's 0-based ring position. The result
// equals g^{r_1 r_2 + r_2 r_3 + ··· + r_n r_1} for every member.
func Key(i int, r, zPrev *big.Int, xs []*big.Int, m *big.Int) (*big.Int, error) {
	n := len(xs)
	if n == 0 {
		return nil, errors.New("bdkey: empty ring")
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("bdkey: index %d out of ring of %d", i, n)
	}
	// Dominant exponentiation: z_{i-1}^{n·r_i}.
	e := new(big.Int).Mul(big.NewInt(int64(n)), r)
	k := new(big.Int).Exp(zPrev, e, m)
	// Small-exponent products: X_{i+j}^{n-1-j} for j = 0..n-2.
	for j := 0; j < n-1; j++ {
		idx := (i + j) % n
		exp := big.NewInt(int64(n - 1 - j))
		t := new(big.Int).Exp(xs[idx], exp, m)
		k.Mul(k, t)
		k.Mod(k, m)
	}
	return k, nil
}

// KeyFromEdgeMont computes member i's group key (equation 3) from the
// directed DH edge b = z_{i-1}^{r_i} that the restructured round 2 leaves
// in the session state, entirely in the Montgomery domain:
//
//	K_i = b^n · X_i^{n-1} · X_{i+1}^{n-2} ··· X_{i+n-2}^{1} mod m
//
// b^n needs only ~log2(n) squarings, and the descending consecutive
// exponents of the X chain telescope into prefix products (Horner):
// Π_t S_t with S_t = X_i···X_{i+t} gives X_{i+j} exponent (n-1)-j. The
// whole assembly is ~2n Montgomery multiplications with no full-width
// exponentiation left. xs are the ring-ordered X values in Montgomery
// form (converted once per session at the wire boundary); the result
// converts back out and is bit-identical to Key.
func KeyFromEdgeMont(mo *mathx.Modulus, i int, edge mathx.Elem, xs []mathx.Elem) (*big.Int, error) {
	n := len(xs)
	if n == 0 {
		return nil, errors.New("bdkey: empty ring")
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("bdkey: index %d out of ring of %d", i, n)
	}
	k := mo.ExpElem(edge, big.NewInt(int64(n)))
	if n > 1 {
		prefix := append(mathx.Elem(nil), xs[i]...)
		acc := append(mathx.Elem(nil), prefix...)
		for j := 1; j <= n-2; j++ {
			mo.MulInto(prefix, prefix, xs[(i+j)%n])
			mo.MulInto(acc, acc, prefix)
		}
		mo.MulInto(k, k, acc)
	}
	return mo.FromMont(k), nil
}

// DirectKey computes g^{Σ r_j r_{j+1}} from all ring exponents — the
// white-box reference used by tests to validate Key against the paper's
// equation (3). Never used by the protocols themselves.
func DirectKey(g *big.Int, rs []*big.Int, order, m *big.Int) *big.Int {
	n := len(rs)
	sum := new(big.Int)
	for i := 0; i < n; i++ {
		t := new(big.Int).Mul(rs[i], rs[(i+1)%n])
		sum.Add(sum, t)
	}
	if order != nil {
		sum.Mod(sum, order)
	}
	return new(big.Int).Exp(g, sum, m)
}
