// Package params defines the system parameter sets the protocols run on:
// the Schnorr group for Burmester-Desmedt key agreement, the GQ/RSA modulus
// for ID-based signatures, and the pairing-friendly supersingular curve for
// the SOK baseline.
//
// The PKG (Private Key Generator) of the paper's Setup phase owns a full
// Set; protocol participants only ever see Set.Public().
//
// Two ways to obtain parameters:
//
//   - Generate(rand.Reader, SizeProduction) — fresh parameters at the
//     paper's sizes (1024-bit p, 160-bit q, 1024-bit RSA modulus, 512-bit
//     pairing field);
//   - Default() — a pre-generated production-size set embedded in the
//     binary, so tests, examples and benchmarks are deterministic and fast.
package params

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/mathx"
)

// Sizes bundles the bit lengths of every parameter in a Set.
type Sizes struct {
	SchnorrP int // Burmester-Desmedt field prime (paper: 1024)
	SchnorrQ int // subgroup order (paper: 160)
	RSAN     int // GQ modulus n = p'q' (paper: 1024, from two 512-bit primes)
	PairingP int // supersingular field prime for SOK (era-typical: 512)
	PairingQ int // pairing group order (160)
}

// SizeProduction mirrors the paper's Setup: 512-bit p', q' (1024-bit n),
// 1024-bit p, 160-bit q; SOK on a 512-bit supersingular field.
var SizeProduction = Sizes{SchnorrP: 1024, SchnorrQ: 160, RSAN: 1024, PairingP: 512, PairingQ: 160}

// SizeTest is a reduced profile for fast randomized tests that must
// exercise generation itself rather than protocol behaviour.
var SizeTest = Sizes{SchnorrP: 256, SchnorrQ: 96, RSAN: 256, PairingP: 192, PairingQ: 96}

// PairingParams describes the supersingular curve y^2 = x^3 + x over F_p
// with p ≡ 3 (mod 4) and a subgroup of prime order q | p+1. The distortion
// map (x, y) -> (-x, iy) with i^2 = -1 turns the Tate pairing into a
// symmetric pairing on the order-q subgroup.
type PairingParams struct {
	P *big.Int // field prime, p ≡ 3 (mod 4)
	Q *big.Int // group order, q | p+1
	C *big.Int // cofactor, p + 1 = c*q
	// Gx, Gy: a generator of the order-q subgroup.
	Gx *big.Int
	Gy *big.Int
}

// Validate checks the structural invariants of the pairing parameters.
func (pp *PairingParams) Validate() error {
	if pp == nil || pp.P == nil || pp.Q == nil || pp.C == nil || pp.Gx == nil || pp.Gy == nil {
		return errors.New("params: incomplete pairing params")
	}
	if !mathx.IsProbablePrime(pp.P) {
		return errors.New("params: pairing p not prime")
	}
	if !mathx.IsProbablePrime(pp.Q) {
		return errors.New("params: pairing q not prime")
	}
	if new(big.Int).And(pp.P, mathx.Three).Cmp(mathx.Three) != 0 {
		return errors.New("params: pairing p must be ≡ 3 (mod 4)")
	}
	lhs := new(big.Int).Add(pp.P, mathx.One)
	if new(big.Int).Mul(pp.C, pp.Q).Cmp(lhs) != 0 {
		return errors.New("params: c*q != p+1")
	}
	// Generator on curve: y^2 = x^3 + x.
	y2 := new(big.Int).Mul(pp.Gy, pp.Gy)
	y2.Mod(y2, pp.P)
	x3 := new(big.Int).Exp(pp.Gx, mathx.Three, pp.P)
	x3.Add(x3, pp.Gx)
	x3.Mod(x3, pp.P)
	if y2.Cmp(x3) != 0 {
		return errors.New("params: pairing generator not on curve")
	}
	return nil
}

// Set is the complete system parameter set produced by the PKG Setup.
type Set struct {
	Schnorr *mathx.SchnorrGroup // (p, q, g) for the GKA exponentiations
	RSA     *mathx.RSAParams    // (n, e [, p', q', d]) for GQ
	Pairing *PairingParams      // supersingular curve for the SOK baseline
}

// Generate runs the Setup of Section 4 at the given sizes, producing a full
// parameter set including PKG master keys.
func Generate(r io.Reader, s Sizes) (*Set, error) {
	sg, err := mathx.GenerateSchnorrGroup(r, s.SchnorrP, s.SchnorrQ)
	if err != nil {
		return nil, fmt.Errorf("params: Schnorr group: %w", err)
	}
	rsa, err := mathx.GenerateRSAParams(r, s.RSAN)
	if err != nil {
		return nil, fmt.Errorf("params: RSA modulus: %w", err)
	}
	pp, err := GeneratePairing(r, s.PairingP, s.PairingQ)
	if err != nil {
		return nil, fmt.Errorf("params: pairing curve: %w", err)
	}
	return &Set{Schnorr: sg, RSA: rsa, Pairing: pp}, nil
}

// GeneratePairing searches for a supersingular parameter set: a qBits-bit
// prime q and pBits-bit prime p = c*q - 1 with p ≡ 3 (mod 4), plus a
// generator of the order-q subgroup of y^2 = x^3 + x.
func GeneratePairing(r io.Reader, pBits, qBits int) (*PairingParams, error) {
	if qBits >= pBits {
		return nil, errors.New("params: pairing needs qBits < pBits")
	}
	q, err := mathx.RandPrime(r, qBits)
	if err != nil {
		return nil, err
	}
	cBits := pBits - qBits
	p := new(big.Int)
	c := new(big.Int)
	for attempt := 0; ; attempt++ {
		if attempt > 64*pBits {
			return nil, errors.New("params: pairing prime search exhausted")
		}
		cr, err := mathx.RandInt(r, new(big.Int).Lsh(mathx.One, uint(cBits)))
		if err != nil {
			return nil, err
		}
		cr.SetBit(cr, cBits-1, 1)
		cr.SetBit(cr, 0, 0) // even cofactor keeps p = c*q - 1 odd
		p.Mul(cr, q)
		p.Sub(p, mathx.One)
		if p.BitLen() != pBits {
			continue
		}
		if new(big.Int).And(p, mathx.Three).Cmp(mathx.Three) != 0 {
			continue
		}
		if mathx.IsProbablePrime(p) {
			c.Set(cr)
			break
		}
	}
	gx, gy, err := pairingGenerator(r, p, q, c)
	if err != nil {
		return nil, err
	}
	return &PairingParams{P: p, Q: q, C: c, Gx: gx, Gy: gy}, nil
}

// pairingGenerator picks a random curve point and multiplies by the
// cofactor to land in the order-q subgroup. Scalar multiplication here is a
// local affine double-and-add — the full group logic lives in
// internal/pairing; params only needs enough to pin down a generator.
func pairingGenerator(r io.Reader, p, q, c *big.Int) (gx, gy *big.Int, err error) {
	for i := 0; i < 1000; i++ {
		x, err := mathx.RandInt(r, p)
		if err != nil {
			return nil, nil, err
		}
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
		gx, gy, inf := ssScalarMul(x, y, c, p)
		if inf {
			continue
		}
		// Confirm order exactly q: q*G = infinity and G != infinity.
		if _, _, inf := ssScalarMul(gx, gy, q, p); !inf {
			continue
		}
		return gx, gy, nil
	}
	return nil, nil, errors.New("params: no pairing generator found")
}

// ssScalarMul is a minimal affine double-and-add on y^2 = x^3 + x used only
// during parameter generation. The boolean result reports the point at
// infinity.
func ssScalarMul(x, y, k, p *big.Int) (*big.Int, *big.Int, bool) {
	// Accumulator starts at infinity.
	var ax, ay *big.Int
	accInf := true
	bx, by := new(big.Int).Set(x), new(big.Int).Set(y)
	baseInf := false
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			ax, ay, accInf = ssAdd(ax, ay, accInf, bx, by, baseInf, p)
		}
		bx, by, baseInf = ssAdd(bx, by, baseInf, bx, by, baseInf, p)
	}
	return ax, ay, accInf
}

// ssAdd adds two affine points on y^2 = x^3 + x (a = 1, b = 0).
func ssAdd(x1, y1 *big.Int, inf1 bool, x2, y2 *big.Int, inf2 bool, p *big.Int) (*big.Int, *big.Int, bool) {
	if inf1 {
		if inf2 {
			return nil, nil, true
		}
		return new(big.Int).Set(x2), new(big.Int).Set(y2), false
	}
	if inf2 {
		return new(big.Int).Set(x1), new(big.Int).Set(y1), false
	}
	var lam *big.Int
	if x1.Cmp(x2) == 0 {
		sum := new(big.Int).Add(y1, y2)
		sum.Mod(sum, p)
		if sum.Sign() == 0 {
			return nil, nil, true // P + (-P)
		}
		// λ = (3x² + 1) / 2y
		num := new(big.Int).Mul(x1, x1)
		num.Mul(num, mathx.Three)
		num.Add(num, mathx.One)
		den := new(big.Int).Lsh(y1, 1)
		deninv := new(big.Int).ModInverse(den.Mod(den, p), p)
		lam = num.Mul(num, deninv)
	} else {
		num := new(big.Int).Sub(y2, y1)
		den := new(big.Int).Sub(x2, x1)
		deninv := new(big.Int).ModInverse(den.Mod(den, p), p)
		lam = num.Mul(num, deninv)
	}
	lam.Mod(lam, p)
	x3 := new(big.Int).Mul(lam, lam)
	x3.Sub(x3, x1)
	x3.Sub(x3, x2)
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(x1, x3)
	y3.Mul(y3, lam)
	y3.Sub(y3, y1)
	y3.Mod(y3, p)
	return x3, y3, false
}

// Public strips the PKG master secrets, leaving what participants receive.
func (s *Set) Public() *Set {
	return &Set{Schnorr: s.Schnorr, RSA: s.RSA.Public(), Pairing: s.Pairing}
}

// Validate checks every component.
func (s *Set) Validate() error {
	if s == nil {
		return errors.New("params: nil set")
	}
	if err := s.Schnorr.Validate(); err != nil {
		return err
	}
	if err := s.RSA.Validate(); err != nil {
		return err
	}
	if s.Pairing != nil {
		if err := s.Pairing.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// HasMasterKey reports whether the set carries the PKG extraction exponent.
func (s *Set) HasMasterKey() bool {
	return s != nil && s.RSA != nil && s.RSA.D.Order() != nil
}
