// Package pairing implements a symmetric bilinear pairing from scratch on
// a supersingular elliptic curve, the construction used by the
// Sakai-Ohgishi-Kasahara era of identity-based cryptography that the
// paper's "BD with SOK" baseline relies on.
//
// Setting: E : y² = x³ + x over F_p with p ≡ 3 (mod 4). The curve is
// supersingular with #E(F_p) = p + 1; parameters choose a prime q | p + 1
// and work in the order-q subgroup G. The distortion map
// φ(x, y) = (-x, i·y) (with i² = -1 in F_p²) maps G to a linearly
// independent group, turning the Tate pairing into a symmetric pairing
//
//	ê : G × G → F_p²,  ê(P, Q) = f_{q,P}(φ(Q))^((p²-1)/q)
//
// computed with Miller's algorithm plus BKLS denominator elimination
// (vertical lines take values in F_p, which the final exponentiation
// kills because (p-1) | (p²-1)/q).
//
// The group law on E is internal/ec's: Group embeds an ec.Curve with
// a = 1, b = 0 and N = q, and points are ec.Points. The one piece of
// curve arithmetic here is the Miller loop's step, kept affine because
// its line evaluations need the chord/tangent slope.
package pairing

import (
	"errors"
	"math/big"
)

// FP2 is an element a + b·i of F_p² with i² = -1. Elements are immutable
// by convention: operations return fresh values.
type FP2 struct {
	A, B *big.Int
}

// fp2Ctx carries the field modulus for F_p² arithmetic.
type fp2Ctx struct {
	p *big.Int
}

func (c fp2Ctx) newFP2(a, b *big.Int) FP2 {
	return FP2{A: new(big.Int).Mod(a, c.p), B: new(big.Int).Mod(b, c.p)}
}

// One returns the multiplicative identity.
func (c fp2Ctx) one() FP2 {
	return FP2{A: big.NewInt(1), B: big.NewInt(0)}
}

// IsOne reports whether v = 1.
func (v FP2) IsOne() bool {
	return v.A != nil && v.A.Cmp(big.NewInt(1)) == 0 && v.B.Sign() == 0
}

// IsZero reports whether v = 0.
func (v FP2) IsZero() bool {
	return v.A == nil || (v.A.Sign() == 0 && v.B.Sign() == 0)
}

// Equal reports element equality.
func (v FP2) Equal(o FP2) bool {
	return v.A.Cmp(o.A) == 0 && v.B.Cmp(o.B) == 0
}

func (c fp2Ctx) add(x, y FP2) FP2 {
	return c.newFP2(new(big.Int).Add(x.A, y.A), new(big.Int).Add(x.B, y.B))
}

func (c fp2Ctx) sub(x, y FP2) FP2 {
	return c.newFP2(new(big.Int).Sub(x.A, y.A), new(big.Int).Sub(x.B, y.B))
}

// mul computes (a+bi)(c+di) = (ac-bd) + (ad+bc)i.
func (c fp2Ctx) mul(x, y FP2) FP2 {
	ac := new(big.Int).Mul(x.A, y.A)
	bd := new(big.Int).Mul(x.B, y.B)
	ad := new(big.Int).Mul(x.A, y.B)
	bc := new(big.Int).Mul(x.B, y.A)
	return c.newFP2(ac.Sub(ac, bd), ad.Add(ad, bc))
}

// square computes (a+bi)² = (a+b)(a-b) + 2ab·i.
func (c fp2Ctx) square(x FP2) FP2 {
	sum := new(big.Int).Add(x.A, x.B)
	diff := new(big.Int).Sub(x.A, x.B)
	re := sum.Mul(sum, diff)
	im := new(big.Int).Mul(x.A, x.B)
	im.Lsh(im, 1)
	return c.newFP2(re, im)
}

// conj returns the conjugate a - bi.
func (c fp2Ctx) conj(x FP2) FP2 {
	return c.newFP2(new(big.Int).Set(x.A), new(big.Int).Neg(x.B))
}

// inv computes 1/(a+bi) = (a-bi)/(a²+b²).
func (c fp2Ctx) inv(x FP2) (FP2, error) {
	norm := new(big.Int).Mul(x.A, x.A)
	norm.Add(norm, new(big.Int).Mul(x.B, x.B))
	norm.Mod(norm, c.p)
	nInv := new(big.Int).ModInverse(norm, c.p)
	if nInv == nil {
		return FP2{}, errors.New("pairing: FP2 inverse of zero")
	}
	return c.newFP2(
		new(big.Int).Mul(x.A, nInv),
		new(big.Int).Mul(new(big.Int).Neg(x.B), nInv),
	), nil
}

// exp computes x^e by square-and-multiply. Negative exponents are not
// needed by the pairing and are rejected.
func (c fp2Ctx) exp(x FP2, e *big.Int) FP2 {
	if e.Sign() < 0 {
		panic("pairing: negative FP2 exponent")
	}
	acc := c.one()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc = c.square(acc)
		if e.Bit(i) == 1 {
			acc = c.mul(acc, x)
		}
	}
	return acc
}

// Bytes returns a fixed-width serialisation (A || B, each padded to the
// field width) suitable for hashing pairing outputs into keys.
func (v FP2) Bytes(p *big.Int) []byte {
	bl := (p.BitLen() + 7) / 8
	out := make([]byte, 2*bl)
	v.A.FillBytes(out[:bl])
	v.B.FillBytes(out[bl:])
	return out
}
