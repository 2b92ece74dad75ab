// Package ec implements short-Weierstrass elliptic curve arithmetic over
// prime fields from scratch (math/big only): Jacobian-coordinate group law,
// double-and-add scalar multiplication, point validation and compressed
// encoding.
//
// It is the one elliptic-curve group law of the repository. It carries the
// paper's certificate-based ECDSA baseline at the paper's own parameter
// size — secp160r1, the "160-bit ECDSA" of Table 1 — plus P-256 for
// modern-size comparisons, and the supersingular curve y² = x³ + x under
// internal/pairing (the BD+SOK baseline). The package is constant-time-
// agnostic: this repository's threat model is protocol evaluation, not
// side-channel resistance, and the energy analysis only needs functional
// correctness and operation counts.
package ec

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/mathx"
)

// Curve describes y² = x³ + ax + b over F_p with a base point G of prime
// order N.
type Curve struct {
	Name   string
	P      *big.Int // field prime
	A, B   *big.Int // curve coefficients
	Gx, Gy *big.Int // base point
	N      *big.Int // base point order
}

// Point is an affine curve point; the zero value (nil coordinates) is the
// point at infinity.
type Point struct {
	X, Y *big.Int
}

// Infinity returns the identity element.
func Infinity() Point { return Point{} }

// IsInfinity reports whether the point is the identity.
func (pt Point) IsInfinity() bool { return pt.X == nil || pt.Y == nil }

// Equal reports point equality (infinity equals infinity).
func (pt Point) Equal(o Point) bool {
	if pt.IsInfinity() || o.IsInfinity() {
		return pt.IsInfinity() && o.IsInfinity()
	}
	return pt.X.Cmp(o.X) == 0 && pt.Y.Cmp(o.Y) == 0
}

// Generator returns the curve's base point.
func (c *Curve) Generator() Point {
	return Point{X: new(big.Int).Set(c.Gx), Y: new(big.Int).Set(c.Gy)}
}

// IsOnCurve reports whether pt satisfies the curve equation (infinity is on
// the curve).
func (c *Curve) IsOnCurve(pt Point) bool {
	if pt.IsInfinity() {
		return true
	}
	if pt.X.Sign() < 0 || pt.X.Cmp(c.P) >= 0 || pt.Y.Sign() < 0 || pt.Y.Cmp(c.P) >= 0 {
		return false
	}
	lhs := new(big.Int).Mul(pt.Y, pt.Y)
	lhs.Mod(lhs, c.P)
	rhs := new(big.Int).Mul(pt.X, pt.X)
	rhs.Mul(rhs, pt.X)
	ax := new(big.Int).Mul(c.A, pt.X)
	rhs.Add(rhs, ax)
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)
	return lhs.Cmp(rhs) == 0
}

// jacPoint is the internal Jacobian representation: x = X/Z², y = Y/Z³.
// Z = 0 encodes infinity.
type jacPoint struct {
	x, y, z *big.Int
}

func (c *Curve) toJac(pt Point) jacPoint {
	if pt.IsInfinity() {
		return jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	}
	return jacPoint{x: new(big.Int).Set(pt.X), y: new(big.Int).Set(pt.Y), z: big.NewInt(1)}
}

func (c *Curve) fromJac(j jacPoint) Point {
	if j.z.Sign() == 0 {
		return Infinity()
	}
	zInv := new(big.Int).ModInverse(j.z, c.P)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, c.P)
	x := new(big.Int).Mul(j.x, zInv2)
	x.Mod(x, c.P)
	zInv3 := zInv2.Mul(zInv2, zInv)
	zInv3.Mod(zInv3, c.P)
	y := new(big.Int).Mul(j.y, zInv3)
	y.Mod(y, c.P)
	return Point{X: x, Y: y}
}

// jacDouble implements dbl-2007-bl for general a (secp160r1 and P-256 use
// a = -3, the pairing curve a = 1; one formula serves all three).
func (c *Curve) jacDouble(p jacPoint) jacPoint {
	if p.z.Sign() == 0 || p.y.Sign() == 0 {
		return jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	}
	mod := c.P
	xx := new(big.Int).Mul(p.x, p.x)
	xx.Mod(xx, mod)
	yy := new(big.Int).Mul(p.y, p.y)
	yy.Mod(yy, mod)
	yyyy := new(big.Int).Mul(yy, yy)
	yyyy.Mod(yyyy, mod)
	zz := new(big.Int).Mul(p.z, p.z)
	zz.Mod(zz, mod)
	// S = 2*((X+YY)^2 - XX - YYYY)
	s := new(big.Int).Add(p.x, yy)
	s.Mul(s, s)
	s.Sub(s, xx)
	s.Sub(s, yyyy)
	s.Lsh(s, 1)
	s.Mod(s, mod)
	// M = 3*XX + a*ZZ^2
	m := new(big.Int).Lsh(xx, 1)
	m.Add(m, xx)
	zz2 := new(big.Int).Mul(zz, zz)
	zz2.Mod(zz2, mod)
	azz2 := new(big.Int).Mul(c.A, zz2)
	m.Add(m, azz2)
	m.Mod(m, mod)
	// X' = M^2 - 2S
	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, new(big.Int).Lsh(s, 1))
	x3.Mod(x3, mod)
	// Y' = M*(S - X') - 8*YYYY
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	y3.Sub(y3, new(big.Int).Lsh(yyyy, 3))
	y3.Mod(y3, mod)
	// Z' = (Y+Z)^2 - YY - ZZ
	z3 := new(big.Int).Add(p.y, p.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, yy)
	z3.Sub(z3, zz)
	z3.Mod(z3, mod)
	return jacPoint{x: x3, y: y3, z: z3}
}

// jacAdd implements add-2007-bl.
func (c *Curve) jacAdd(p, q jacPoint) jacPoint {
	if p.z.Sign() == 0 {
		return q
	}
	if q.z.Sign() == 0 {
		return p
	}
	mod := c.P
	z1z1 := new(big.Int).Mul(p.z, p.z)
	z1z1.Mod(z1z1, mod)
	z2z2 := new(big.Int).Mul(q.z, q.z)
	z2z2.Mod(z2z2, mod)
	u1 := new(big.Int).Mul(p.x, z2z2)
	u1.Mod(u1, mod)
	u2 := new(big.Int).Mul(q.x, z1z1)
	u2.Mod(u2, mod)
	s1 := new(big.Int).Mul(p.y, q.z)
	s1.Mul(s1, z2z2)
	s1.Mod(s1, mod)
	s2 := new(big.Int).Mul(q.y, p.z)
	s2.Mul(s2, z1z1)
	s2.Mod(s2, mod)
	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			return jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
		}
		return c.jacDouble(p)
	}
	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, mod)
	i := new(big.Int).Lsh(h, 1)
	i.Mul(i, i)
	i.Mod(i, mod)
	j := new(big.Int).Mul(h, i)
	j.Mod(j, mod)
	r := new(big.Int).Sub(s2, s1)
	r.Lsh(r, 1)
	r.Mod(r, mod)
	v := new(big.Int).Mul(u1, i)
	v.Mod(v, mod)
	// X3 = r^2 - J - 2V
	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, j)
	x3.Sub(x3, new(big.Int).Lsh(v, 1))
	x3.Mod(x3, mod)
	// Y3 = r*(V - X3) - 2*S1*J
	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, r)
	s1j := new(big.Int).Mul(s1, j)
	y3.Sub(y3, new(big.Int).Lsh(s1j, 1))
	y3.Mod(y3, mod)
	// Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
	z3 := new(big.Int).Add(p.z, q.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	z3.Sub(z3, z2z2)
	z3.Mul(z3, h)
	z3.Mod(z3, mod)
	return jacPoint{x: x3, y: y3, z: z3}
}

// Add returns p + q.
func (c *Curve) Add(p, q Point) Point {
	return c.fromJac(c.jacAdd(c.toJac(p), c.toJac(q)))
}

// Double returns 2p.
func (c *Curve) Double(p Point) Point {
	return c.fromJac(c.jacDouble(c.toJac(p)))
}

// Neg returns -p.
func (c *Curve) Neg(p Point) Point {
	if p.IsInfinity() {
		return Infinity()
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Sub(c.P, p.Y)}
}

// ScalarMult returns k*p using left-to-right double-and-add in Jacobian
// coordinates. k is taken as given, not reduced mod N: N·p = ∞ is what
// Validate and a subgroup check test, and a cofactor multiplier exceeds N.
// A negative k multiplies -p by |k|.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	if k.Sign() == 0 || p.IsInfinity() {
		return Infinity()
	}
	if k.Sign() < 0 {
		k = new(big.Int).Neg(k)
		p = c.Neg(p)
	}
	base := c.toJac(p)
	acc := jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		if k.Bit(i) == 1 {
			acc = c.jacAdd(acc, base)
		}
	}
	return c.fromJac(acc)
}

// ScalarBaseMult returns k*G.
func (c *Curve) ScalarBaseMult(k *big.Int) Point {
	return c.ScalarMult(c.Generator(), k)
}

// RandScalar draws a uniform scalar in [1, N-1].
func (c *Curve) RandScalar(r io.Reader) (*big.Int, error) {
	return mathx.RandScalar(r, c.N)
}

// byteLen returns the field element encoding width.
func (c *Curve) byteLen() int { return (c.P.BitLen() + 7) / 8 }

// MarshalCompressed encodes a point as 0x02/0x03 || X (SEC1). Infinity
// encodes as the single byte 0x00.
func (c *Curve) MarshalCompressed(pt Point) []byte {
	if pt.IsInfinity() {
		return []byte{0}
	}
	bl := c.byteLen()
	out := make([]byte, 1+bl)
	out[0] = byte(2 + pt.Y.Bit(0))
	pt.X.FillBytes(out[1:])
	return out
}

// UnmarshalCompressed decodes a compressed point, validating curve
// membership.
func (c *Curve) UnmarshalCompressed(data []byte) (Point, error) {
	if len(data) == 1 && data[0] == 0 {
		return Infinity(), nil
	}
	bl := c.byteLen()
	if len(data) != 1+bl || (data[0] != 2 && data[0] != 3) {
		return Point{}, fmt.Errorf("ec: bad compressed point length %d", len(data))
	}
	x := new(big.Int).SetBytes(data[1:])
	if x.Cmp(c.P) >= 0 {
		return Point{}, errors.New("ec: x out of range")
	}
	// y² = x³ + ax + b
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, new(big.Int).Mul(c.A, x))
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)
	y, err := mathx.SqrtMod(rhs, c.P)
	if err != nil {
		return Point{}, errors.New("ec: point not on curve")
	}
	if y.Bit(0) != uint(data[0]&1) {
		y.Sub(c.P, y)
	}
	pt := Point{X: x, Y: y}
	if !c.IsOnCurve(pt) {
		return Point{}, errors.New("ec: decoded point fails curve equation")
	}
	return pt, nil
}

// Validate checks the structural invariants of the curve parameters.
func (c *Curve) Validate() error {
	if !mathx.IsProbablePrime(c.P) {
		return errors.New("ec: p not prime")
	}
	if !mathx.IsProbablePrime(c.N) {
		return errors.New("ec: n not prime")
	}
	if !c.IsOnCurve(c.Generator()) {
		return errors.New("ec: generator not on curve")
	}
	if !c.ScalarMult(c.Generator(), c.N).IsInfinity() {
		return errors.New("ec: generator order is not n")
	}
	return nil
}
