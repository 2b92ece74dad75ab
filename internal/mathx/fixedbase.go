package mathx

import (
	"errors"
	"math/big"
)

// This file holds windowed fixed-base precomputation (the BGMW radix-2^w
// method). A table walk is mathematically transparent: it returns values
// bit-identical to the naive exponentiation, so operation meters and
// protocol transcripts do not depend on it.

// DefaultWindow is the radix width used by Precompute helpers: 2^6 digits
// balance table size (~ceil(bits/6)·63 entries) against the number of
// modular multiplications per exponentiation (ceil(bits/6) - 1).
const DefaultWindow = 6

// FixedBaseTable holds the precomputed powers of one long-lived base —
// a group generator or an identity key — enabling exponentiation in
// ~ceil(maxBits/window) modular multiplications with NO squarings:
//
//	rows[i][j] = base^(j << (window·i)) mod m
//
// so base^e = Π_i rows[i][digit_i(e)] where digit_i is the i-th radix-2^w
// digit of e. The rows live in the Montgomery domain of the (odd) modulus,
// so a walk is a chain of Montgomery products with a single conversion
// out. A table is immutable after construction and safe for concurrent
// use.
type FixedBaseTable struct {
	base    *big.Int // base mod m, for the big.Int fallback
	mo      *Modulus
	window  uint
	maxBits int
	rows    [][]Elem
}

// NewFixedBaseTable precomputes the powers of base modulo an odd mod for
// exponents up to maxBits bits using radix-2^window digits.
func NewFixedBaseTable(base, mod *big.Int, maxBits int, window uint) (*FixedBaseTable, error) {
	if mod == nil || mod.Cmp(One) <= 0 {
		return nil, errors.New("mathx: fixed-base modulus must be > 1")
	}
	if base == nil {
		return nil, errors.New("mathx: fixed-base base must be non-nil")
	}
	if maxBits < 1 {
		return nil, errors.New("mathx: fixed-base maxBits must be >= 1")
	}
	if window < 1 || window > 12 {
		return nil, errors.New("mathx: fixed-base window must be in [1, 12]")
	}
	mo, err := NewModulus(mod)
	if err != nil {
		return nil, err
	}
	t := &FixedBaseTable{
		base:    new(big.Int).Mod(base, mod),
		mo:      mo,
		window:  window,
		maxBits: maxBits,
	}
	nrows := (maxBits + int(window) - 1) / int(window)
	width := 1 << window
	flat := make([]big.Word, nrows*width*mo.k) // one backing array for every entry
	cur := mo.ToMont(t.base)                   // base^(2^(window·i)) for the current row
	t.rows = make([][]Elem, nrows)
	for i := range t.rows {
		row := make([]Elem, width)
		for j := range row {
			row[j], flat = flat[:mo.k:mo.k], flat[mo.k:]
		}
		copy(row[0], mo.one)
		copy(row[1], cur)
		for j := 2; j < width; j++ {
			mo.MulInto(row[j], row[j-1], cur)
		}
		mo.MulInto(cur, row[width-1], cur)
		t.rows[i] = row
	}
	return t, nil
}

// MaxBits returns the largest exponent bit length the table covers.
func (t *FixedBaseTable) MaxBits() int { return t.maxBits }

// Window returns the radix width in bits.
func (t *FixedBaseTable) Window() int { return int(t.window) }

// Covers reports whether the table path applies to exponent e
// (non-negative and within the precomputed bit range).
func (t *FixedBaseTable) Covers(e *big.Int) bool {
	return e != nil && e.Sign() >= 0 && e.BitLen() <= t.maxBits
}

// windowDigit extracts the i-th radix-2^w digit of e.
func windowDigit(e *big.Int, i, w int) uint {
	var d uint
	for b := 0; b < w; b++ {
		d |= e.Bit(i*w+b) << b
	}
	return d
}

// Exp returns base^e mod m. Covered exponents use the table (one modular
// multiplication per non-zero digit); anything else — negative or
// oversized — falls back to (*big.Int).Exp with its exact semantics,
// including the nil result for a negative exponent of a non-invertible
// base. Results are bit-identical to the naive computation.
func (t *FixedBaseTable) Exp(e *big.Int) *big.Int { return t.ExpMul(e, One) }

// ExpMul returns base^e · y mod m, bit-identical to Exp(e)·y mod m. The
// factor y rides the conversion out of the Montgomery domain — a raw
// operand there divides out the accumulator's R — so it costs no extra
// multiplication and no division.
func (t *FixedBaseTable) ExpMul(e, y *big.Int) *big.Int {
	if !t.Covers(e) {
		z := new(big.Int).Exp(t.base, e, t.mo.m)
		if z == nil {
			return nil
		}
		return z.Mod(z.Mul(z, y), t.mo.m)
	}
	var abuf, ybuf [maxModulusWords]big.Word
	acc := abuf[:t.mo.k]
	copy(acc, t.mo.one)
	w := int(t.window)
	bits := e.BitLen()
	for i := 0; i*w < bits; i++ {
		if d := windowDigit(e, i, w); d != 0 {
			t.mo.MulInto(acc, acc, t.rows[i][d])
		}
	}
	t.mo.montMul(acc, acc, t.mo.limbs(&ybuf, y))
	return bigFromElem(acc)
}
