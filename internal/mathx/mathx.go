// Package mathx provides the modular-arithmetic toolkit shared by every
// cryptographic substrate in this repository: random scalars and units,
// prime generation (including Schnorr-group and pairing-friendly shapes),
// modular square roots, Legendre symbols and product trees.
//
// Everything is built on math/big and crypto/rand only. The package is
// deliberately free of protocol knowledge; it is the bottom layer of the
// dependency graph.
package mathx

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Handy shared constants. They are treated as immutable; callers must not
// mutate them.
var (
	Zero  = big.NewInt(0)
	One   = big.NewInt(1)
	Two   = big.NewInt(2)
	Three = big.NewInt(3)
	Four  = big.NewInt(4)
)

// primeIterations is the number of Miller-Rabin rounds used by
// ProbablyPrime checks. 32 rounds gives a 2^-64 error bound on random
// candidates, far below the other failure modes of the system.
const primeIterations = 32

// RandInt returns a uniformly random integer in [0, max). It is a thin
// wrapper over crypto/rand.Int that normalises error text.
func RandInt(r io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, errors.New("mathx: RandInt bound must be positive")
	}
	v, err := rand.Int(r, max)
	if err != nil {
		return nil, fmt.Errorf("mathx: drawing random int: %w", err)
	}
	return v, nil
}

// RandScalar returns a uniformly random integer in [1, q-1], the usual
// exponent range for a group of prime order q.
func RandScalar(r io.Reader, q *big.Int) (*big.Int, error) {
	if q.Cmp(Two) < 0 {
		return nil, errors.New("mathx: RandScalar modulus must be >= 2")
	}
	bound := new(big.Int).Sub(q, One) // draws from [0, q-2]
	v, err := RandInt(r, bound)
	if err != nil {
		return nil, err
	}
	return v.Add(v, One), nil // shift to [1, q-1]
}

// RandPrime returns a random prime of exactly the given bit length.
func RandPrime(r io.Reader, bits int) (*big.Int, error) {
	if bits < 2 {
		return nil, errors.New("mathx: RandPrime needs bits >= 2")
	}
	p, err := rand.Prime(r, bits)
	if err != nil {
		return nil, fmt.Errorf("mathx: generating %d-bit prime: %w", bits, err)
	}
	return p, nil
}

// IsProbablePrime reports whether v is prime with the package-wide
// Miller-Rabin confidence.
func IsProbablePrime(v *big.Int) bool {
	return v.ProbablyPrime(primeIterations)
}

// ModInverse returns v^-1 mod m, or an error when the inverse does not
// exist. Unlike (*big.Int).ModInverse it never returns nil silently.
func ModInverse(v, m *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(v, m)
	if inv == nil {
		return nil, fmt.Errorf("mathx: %v is not invertible mod %v", v, m)
	}
	return inv, nil
}

// Legendre computes the Legendre symbol (a/p) for an odd prime p:
// 1 when a is a non-zero quadratic residue, -1 when a is a non-residue and
// 0 when p divides a.
func Legendre(a, p *big.Int) int {
	e := new(big.Int).Rsh(new(big.Int).Sub(p, One), 1) // (p-1)/2
	s := new(big.Int).Exp(new(big.Int).Mod(a, p), e, p)
	switch {
	case s.Sign() == 0:
		return 0
	case s.Cmp(One) == 0:
		return 1
	default:
		return -1
	}
}

// SqrtMod computes a square root of a modulo an odd prime p, returning an
// error when a is a non-residue. It fast-paths p ≡ 3 (mod 4) and falls back
// to Tonelli-Shanks for p ≡ 1 (mod 4).
func SqrtMod(a, p *big.Int) (*big.Int, error) {
	a = new(big.Int).Mod(a, p)
	if a.Sign() == 0 {
		return big.NewInt(0), nil
	}
	if Legendre(a, p) != 1 {
		return nil, errors.New("mathx: SqrtMod of a non-residue")
	}
	if new(big.Int).And(p, Three).Cmp(Three) == 0 {
		// p ≡ 3 (mod 4): root is a^((p+1)/4).
		e := new(big.Int).Add(p, One)
		e.Rsh(e, 2)
		return new(big.Int).Exp(a, e, p), nil
	}
	return tonelliShanks(a, p)
}

// tonelliShanks implements the general odd-prime square root algorithm.
func tonelliShanks(a, p *big.Int) (*big.Int, error) {
	// Write p-1 = q * 2^s with q odd.
	q := new(big.Int).Sub(p, One)
	s := 0
	for q.Bit(0) == 0 {
		q.Rsh(q, 1)
		s++
	}
	// Find a non-residue z.
	z := big.NewInt(2)
	for Legendre(z, p) != -1 {
		z.Add(z, One)
		if z.Cmp(p) >= 0 {
			return nil, errors.New("mathx: tonelliShanks failed to find non-residue")
		}
	}
	m := s
	c := new(big.Int).Exp(z, q, p)
	t := new(big.Int).Exp(a, q, p)
	r := new(big.Int).Exp(a, new(big.Int).Rsh(new(big.Int).Add(q, One), 1), p)
	for t.Cmp(One) != 0 {
		// Find least i in (0, m) with t^(2^i) = 1.
		i := 0
		t2 := new(big.Int).Set(t)
		for t2.Cmp(One) != 0 {
			t2.Mul(t2, t2).Mod(t2, p)
			i++
			if i == m {
				return nil, errors.New("mathx: tonelliShanks internal failure")
			}
		}
		// b = c^(2^(m-i-1))
		b := new(big.Int).Set(c)
		for j := 0; j < m-i-1; j++ {
			b.Mul(b, b).Mod(b, p)
		}
		m = i
		c.Mul(b, b).Mod(c, p)
		t.Mul(t, c).Mod(t, p)
		r.Mul(r, b).Mod(r, p)
	}
	return r, nil
}

// ProductMod returns the product of all values modulo m. A nil or empty
// slice yields 1, matching the empty-product convention used by the batch
// verification equations.
func ProductMod(values []*big.Int, m *big.Int) *big.Int {
	acc := big.NewInt(1)
	for _, v := range values {
		acc.Mul(acc, v)
		acc.Mod(acc, m)
	}
	return acc
}
