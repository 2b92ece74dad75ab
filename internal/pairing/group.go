package pairing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"idgka/internal/ec"
	"idgka/internal/hashx"
	"idgka/internal/mathx"
	"idgka/internal/params"
)

// Group is the order-q subgroup of the supersingular curve with its
// hashing and the modified Tate pairing. The group law (Add, Neg,
// ScalarMult, IsOnCurve, ...) is the embedded ec.Curve's, with N = q.
type Group struct {
	*ec.Curve
	cofactor *big.Int // c = (p + 1) / q
	ctx      fp2Ctx
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
	curve := &ec.Curve{
		Name: "supersingular y² = x³ + x",
		P:    pp.P,
		A:    big.NewInt(1),
		B:    big.NewInt(0),
		Gx:   pp.Gx,
		Gy:   pp.Gy,
		N:    pp.Q,
	}
	return &Group{Curve: curve, cofactor: pp.C, ctx: fp2Ctx{p: pp.P}, finalExp: fe}, nil
}

// HashToGroup maps an arbitrary string onto the order-q subgroup
// (MapToPoint in the paper's operation accounting): try-and-increment onto
// the curve, then clear the cofactor.
func (g *Group) HashToGroup(msg string) (ec.Point, error) {
	p := g.P
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
		pt := g.ScalarMult(ec.Point{X: x, Y: y}, g.cofactor)
		if pt.IsInfinity() {
			continue
		}
		return pt, nil
	}
	return ec.Point{}, errors.New("pairing: HashToGroup exhausted counters")
}

// Marshal encodes a point as X || Y with field-width padding; infinity is
// the single byte 0.
func (g *Group) Marshal(pt ec.Point) []byte {
	if pt.IsInfinity() {
		return []byte{0}
	}
	bl := (g.P.BitLen() + 7) / 8
	out := make([]byte, 2*bl)
	pt.X.FillBytes(out[:bl])
	pt.Y.FillBytes(out[bl:])
	return out
}

// Unmarshal decodes a point produced by Marshal, validating membership of
// the curve (not of the subgroup; use CheckSubgroup when required).
func (g *Group) Unmarshal(data []byte) (ec.Point, error) {
	if len(data) == 1 && data[0] == 0 {
		return ec.Infinity(), nil
	}
	bl := (g.P.BitLen() + 7) / 8
	if len(data) != 2*bl {
		return ec.Point{}, fmt.Errorf("pairing: bad point encoding length %d", len(data))
	}
	pt := ec.Point{
		X: new(big.Int).SetBytes(data[:bl]),
		Y: new(big.Int).SetBytes(data[bl:]),
	}
	if !g.IsOnCurve(pt) {
		return ec.Point{}, errors.New("pairing: point not on curve")
	}
	return pt, nil
}

// CheckSubgroup verifies that pt has order dividing q.
func (g *Group) CheckSubgroup(pt ec.Point) error {
	if !g.IsOnCurve(pt) {
		return errors.New("pairing: point not on curve")
	}
	if !g.ScalarMult(pt, g.N).IsInfinity() {
		return errors.New("pairing: point not in order-q subgroup")
	}
	return nil
}
