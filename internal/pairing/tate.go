package pairing

import (
	"errors"
	"math/big"

	"idgka/internal/ec"
	"idgka/internal/mathx"
)

// GT is a pairing output: an element of the order-q subgroup of F_p²^*.
type GT struct {
	v FP2
	p *big.Int
}

// Equal reports GT equality.
func (t GT) Equal(o GT) bool { return t.v.Equal(o.v) }

// IsOne reports whether the value is the identity (which a pairing of
// linearly dependent or degenerate inputs produces).
func (t GT) IsOne() bool { return t.v.IsOne() }

// Bytes returns a fixed-width serialisation for key derivation.
func (t GT) Bytes() []byte { return t.v.Bytes(t.p) }

// Exp raises the pairing value to a scalar power.
func (g *Group) Exp(t GT, k *big.Int) GT {
	kk := new(big.Int).Mod(k, g.N)
	return GT{v: g.ctx.exp(t.v, kk), p: g.P}
}

// MulGT multiplies two pairing values.
func (g *Group) MulGT(a, b GT) GT {
	return GT{v: g.ctx.mul(a.v, b.v), p: g.P}
}

// InvGT inverts a pairing value. Pairing outputs lie in the order-q
// cyclotomic subgroup where the conjugate is the inverse, so this never
// fails for well-formed values.
func (g *Group) InvGT(a GT) GT {
	return GT{v: g.ctx.conj(a.v), p: g.P}
}

// distort applies φ(x, y) = (-x, i·y), returning the F_p² coordinates
// (xd ∈ F_p embedded, yd purely imaginary).
func (g *Group) distort(q ec.Point) (xd, yd FP2) {
	negX := new(big.Int).Neg(q.X)
	xd = g.ctx.newFP2(negX, big.NewInt(0))
	yd = g.ctx.newFP2(big.NewInt(0), new(big.Int).Set(q.Y))
	return xd, yd
}

// addWithSlope is the Miller loop's step: the affine chord/tangent sum
// a + b together with its slope λ, which the line evaluation needs (a
// Jacobian step would have to recover it). The slope is nil for vertical
// lines and infinity inputs.
func (g *Group) addWithSlope(a, b ec.Point) (ec.Point, *big.Int) {
	p := g.P
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
			return ec.Infinity(), nil // vertical line
		}
		// Tangent: λ = (3x² + a) / 2y.
		num := new(big.Int).Mul(a.X, a.X)
		num.Mul(num, mathx.Three)
		num.Add(num, g.A)
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
	return ec.Point{X: x3, Y: y3}, lam
}

// lineEval evaluates the line through a and b (tangent when a = b) at the
// distorted point (xd, yd): l = (yd - y_a) - λ(xd - x_a). The slope λ is
// supplied by addWithSlope. All of a's coordinates are in F_p; the
// result is a genuine F_p² element (its imaginary part carries y_Q), which
// is what makes BKLS denominator elimination sound here.
func (g *Group) lineEval(a ec.Point, lam *big.Int, xd, yd FP2) FP2 {
	// (xd - x_a) has only a real part: -x_Q - x_a.
	dx := g.ctx.sub(xd, g.ctx.newFP2(a.X, big.NewInt(0)))
	// λ·dx is real; (yd - y_a) = -y_a + i·y_Q.
	lamDx := g.ctx.mul(g.ctx.newFP2(lam, big.NewInt(0)), dx)
	dy := g.ctx.sub(yd, g.ctx.newFP2(a.Y, big.NewInt(0)))
	return g.ctx.sub(dy, lamDx)
}

// Pair computes the modified Tate pairing ê(P, Q) = f_{q,P}(φ(Q))^((p²-1)/q).
//
// Both arguments must lie in the order-q subgroup of E(F_p). The result is
// symmetric (ê(P,Q) = ê(Q,P)) and bilinear; ê(P,P) ≠ 1 for P ≠ ∞, which is
// what the distortion map buys.
func (g *Group) Pair(pP, pQ ec.Point) (GT, error) {
	if pP.IsInfinity() || pQ.IsInfinity() {
		return GT{v: g.ctx.one(), p: g.P}, nil
	}
	if !g.IsOnCurve(pP) || !g.IsOnCurve(pQ) {
		return GT{}, errors.New("pairing: input off curve")
	}
	xd, yd := g.distort(pQ)
	f := g.ctx.one()
	t := pP
	q := g.N
	for i := q.BitLen() - 2; i >= 0; i-- {
		// Doubling step: f = f² · l_{T,T}(φ(Q)).
		f = g.ctx.square(f)
		tPrev := t
		next, lam := g.addWithSlope(t, t)
		if lam != nil {
			f = g.ctx.mul(f, g.lineEval(tPrev, lam, xd, yd))
		}
		// Vertical tangent (y=0) cannot occur inside an odd-order subgroup;
		// if T reached infinity the remaining factors are 1.
		t = next
		if q.Bit(i) == 1 {
			if t.IsInfinity() {
				t = pP
				continue
			}
			tPrev = t
			sum, lam := g.addWithSlope(t, pP)
			if lam != nil {
				f = g.ctx.mul(f, g.lineEval(tPrev, lam, xd, yd))
			}
			// Vertical chord (T = -P): line value x_φ(Q) - x_T ∈ F_p is
			// killed by the final exponentiation — skip it (BKLS).
			t = sum
		}
	}
	out := g.ctx.exp(f, g.finalExp)
	return GT{v: out, p: g.P}, nil
}
