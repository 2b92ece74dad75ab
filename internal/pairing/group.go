package pairing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/params"
)

// Point is an affine point on E : y² = x³ + x over F_p. The zero value is
// the point at infinity.
type Point struct {
	X, Y *big.Int
}

// Infinity returns the identity element.
func Infinity() Point { return Point{} }

// IsInfinity reports whether the point is the identity.
func (pt Point) IsInfinity() bool { return pt.X == nil || pt.Y == nil }

// Equal reports point equality.
func (pt Point) Equal(o Point) bool {
	if pt.IsInfinity() || o.IsInfinity() {
		return pt.IsInfinity() && o.IsInfinity()
	}
	return pt.X.Cmp(o.X) == 0 && pt.Y.Cmp(o.Y) == 0
}

// Group binds the supersingular curve parameters and implements the group
// law, hashing, and the modified Tate pairing.
type Group struct {
	pp  *params.PairingParams
	ctx fp2Ctx
	// finalExp = (p² - 1) / q, the Tate final exponentiation.
	finalExp *big.Int
}

// NewGroup constructs a Group from validated parameters.
func NewGroup(pp *params.PairingParams) (*Group, error) {
	if err := pp.Validate(); err != nil {
		return nil, fmt.Errorf("pairing: %w", err)
	}
	p2 := new(big.Int).Mul(pp.P, pp.P)
	p2.Sub(p2, mathx.One)
	fe := new(big.Int).Div(p2, pp.Q)
	return &Group{pp: pp, ctx: fp2Ctx{p: pp.P}, finalExp: fe}, nil
}

// Params exposes the underlying parameters.
func (g *Group) Params() *params.PairingParams { return g.pp }

// Generator returns the order-q base point.
func (g *Group) Generator() Point {
	return Point{X: new(big.Int).Set(g.pp.Gx), Y: new(big.Int).Set(g.pp.Gy)}
}

// Order returns q.
func (g *Group) Order() *big.Int { return g.pp.Q }

// IsOnCurve reports whether pt satisfies y² = x³ + x.
func (g *Group) IsOnCurve(pt Point) bool {
	if pt.IsInfinity() {
		return true
	}
	p := g.pp.P
	lhs := new(big.Int).Mul(pt.Y, pt.Y)
	lhs.Mod(lhs, p)
	rhs := new(big.Int).Exp(pt.X, mathx.Three, p)
	rhs.Add(rhs, pt.X)
	rhs.Mod(rhs, p)
	return lhs.Cmp(rhs) == 0
}

// Neg returns -pt.
func (g *Group) Neg(pt Point) Point {
	if pt.IsInfinity() {
		return Infinity()
	}
	return Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Sub(g.pp.P, pt.Y)}
}

// Add returns a + b on the curve.
func (g *Group) Add(a, b Point) Point {
	pt, _ := g.addWithSlope(a, b)
	return pt
}

// addWithSlope adds two points and returns the chord/tangent slope when it
// exists; the slope is nil for vertical lines and infinity inputs. The
// Miller loop consumes the slope for its line evaluations.
func (g *Group) addWithSlope(a, b Point) (Point, *big.Int) {
	p := g.pp.P
	if a.IsInfinity() {
		return b, nil
	}
	if b.IsInfinity() {
		return a, nil
	}
	var lam *big.Int
	if a.X.Cmp(b.X) == 0 {
		ySum := new(big.Int).Add(a.Y, b.Y)
		ySum.Mod(ySum, p)
		if ySum.Sign() == 0 {
			return Infinity(), nil // vertical line
		}
		// Tangent: λ = (3x² + 1) / 2y.
		num := new(big.Int).Mul(a.X, a.X)
		num.Mul(num, mathx.Three)
		num.Add(num, mathx.One)
		den := new(big.Int).Lsh(a.Y, 1)
		den.Mod(den, p)
		lam = num.Mul(num, new(big.Int).ModInverse(den, p))
	} else {
		num := new(big.Int).Sub(b.Y, a.Y)
		den := new(big.Int).Sub(b.X, a.X)
		den.Mod(den, p)
		lam = num.Mul(num, new(big.Int).ModInverse(den, p))
	}
	lam.Mod(lam, p)
	x3 := new(big.Int).Mul(lam, lam)
	x3.Sub(x3, a.X)
	x3.Sub(x3, b.X)
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(a.X, x3)
	y3.Mul(y3, lam)
	y3.Sub(y3, a.Y)
	y3.Mod(y3, p)
	return Point{X: x3, Y: y3}, lam
}

// ScalarMult returns k·pt via double-and-add.
func (g *Group) ScalarMult(pt Point, k *big.Int) Point {
	if pt.IsInfinity() || k.Sign() == 0 {
		return Infinity()
	}
	kk := new(big.Int).Set(k)
	if kk.Sign() < 0 {
		kk.Neg(kk)
		pt = g.Neg(pt)
	}
	acc := Infinity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = g.Add(acc, acc)
		if kk.Bit(i) == 1 {
			acc = g.Add(acc, pt)
		}
	}
	return acc
}

// ScalarBaseMult returns k·G.
func (g *Group) ScalarBaseMult(k *big.Int) Point {
	return g.ScalarMult(g.Generator(), k)
}

// RandScalar draws a uniform scalar in [1, q-1].
func (g *Group) RandScalar(r io.Reader) (*big.Int, error) {
	return mathx.RandScalar(r, g.pp.Q)
}

// HashToGroup maps an arbitrary string onto the order-q subgroup
// (MapToPoint in the paper's operation accounting): try-and-increment onto
// the curve, then clear the cofactor.
func (g *Group) HashToGroup(msg string) (Point, error) {
	p := g.pp.P
	for ctr := uint32(0); ctr < 1<<16; ctr++ {
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		x := hashx.ScalarDigest(hashx.TagMapToPoint, p, []byte(msg), cb[:])
		rhs := new(big.Int).Exp(x, mathx.Three, p)
		rhs.Add(rhs, x)
		rhs.Mod(rhs, p)
		if rhs.Sign() == 0 {
			continue
		}
		if mathx.Legendre(rhs, p) != 1 {
			continue
		}
		y, err := mathx.SqrtMod(rhs, p)
		if err != nil {
			continue
		}
		// Pick the "even" root deterministically.
		if y.Bit(0) == 1 {
			y.Sub(p, y)
		}
		pt := g.ScalarMult(Point{X: x, Y: y}, g.pp.C) // clear cofactor
		if pt.IsInfinity() {
			continue
		}
		return pt, nil
	}
	return Point{}, errors.New("pairing: HashToGroup exhausted counters")
}

// Marshal encodes a point as X || Y with field-width padding; infinity is
// the single byte 0.
func (g *Group) Marshal(pt Point) []byte {
	if pt.IsInfinity() {
		return []byte{0}
	}
	bl := (g.pp.P.BitLen() + 7) / 8
	out := make([]byte, 2*bl)
	pt.X.FillBytes(out[:bl])
	pt.Y.FillBytes(out[bl:])
	return out
}

// Unmarshal decodes a point produced by Marshal, validating membership of
// the curve (not of the subgroup; use CheckSubgroup when required).
func (g *Group) Unmarshal(data []byte) (Point, error) {
	if len(data) == 1 && data[0] == 0 {
		return Infinity(), nil
	}
	bl := (g.pp.P.BitLen() + 7) / 8
	if len(data) != 2*bl {
		return Point{}, fmt.Errorf("pairing: bad point encoding length %d", len(data))
	}
	pt := Point{
		X: new(big.Int).SetBytes(data[:bl]),
		Y: new(big.Int).SetBytes(data[bl:]),
	}
	if pt.X.Cmp(g.pp.P) >= 0 || pt.Y.Cmp(g.pp.P) >= 0 {
		return Point{}, errors.New("pairing: coordinate out of range")
	}
	if !g.IsOnCurve(pt) {
		return Point{}, errors.New("pairing: point not on curve")
	}
	return pt, nil
}

// CheckSubgroup verifies that pt has order dividing q.
func (g *Group) CheckSubgroup(pt Point) error {
	if !g.IsOnCurve(pt) {
		return errors.New("pairing: point not on curve")
	}
	if !g.ScalarMult(pt, g.pp.Q).IsInfinity() {
		return errors.New("pairing: point not in order-q subgroup")
	}
	return nil
}
