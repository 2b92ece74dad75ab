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

// ErrLemma1 reports round-2 values whose product is not 1: at least one
// X is corrupt.
var ErrLemma1 = errors.New("bdkey: Lemma 1 failed: ΠX_i ≠ 1, at least one X is corrupt")

// CheckLemma1 verifies Π X_i ≡ 1 (mod m) — the paper's integrity check on
// the round-2 values. The order of xs is irrelevant.
func CheckLemma1(xs []*big.Int, m *big.Int) error {
	if mathx.ProductMod(xs, m).Cmp(mathx.One) != 0 {
		return ErrLemma1
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

// KeyFromEdge checks Lemma 1 and computes member i's group key
// (equation 3) in one chain of Montgomery products, from the directed DH
// edge b = z_{i-1}^{r_i} = g^{r_{i-1}·r_i} (in the Montgomery domain) and
// the ring's X values as raw residues:
//
//	K_i = b^n · X_i^{n-1} · X_{i+1}^{n-2} ··· X_{i+n-2}^{1} mod m
//
// b is also member i-1's forward edge z_i^{r_{i-1}}: a member holding
// its forward edge e = z_{i+1}^{r_i} passes i+1 and gets the same key.
// xs holds the X values in ring order, each in (0, m), X_j in slot j.
// The descending consecutive exponents telescope into prefix products
// (Horner): Π_t S_t with S_t = X_i···X_{i+t}.
// mathx.Modulus.PrefixProducts runs them on the raw slots, so no X is
// converted into the domain, and extends the last prefix to Π X_j for
// Lemma 1; a failure returns ErrLemma1 before b^n is raised.
// b^n needs ~log2(n) squarings, and one product joins it with the Horner
// product's image. The whole assembly is ~2n Montgomery products (n
// paired calls for the chain where mathx runs the radix-2^52 lane),
// bit-identical to Key.
func KeyFromEdge(mo *mathx.Modulus, i int, edge mathx.Elem, xs mathx.Packed) (*big.Int, error) {
	n := xs.Len()
	if n == 0 {
		return nil, errors.New("bdkey: empty ring")
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("bdkey: index %d out of ring of %d", i, n)
	}
	horner, ok := mo.PrefixProducts(xs, i)
	if !ok {
		return nil, ErrLemma1
	}
	key := mo.ExpElem(edge, big.NewInt(int64(n)))
	mo.MulInto(key, key, horner)
	return mo.FromMont(key), nil
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
