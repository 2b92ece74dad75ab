package mathx

import (
	"errors"
	"math/big"
)

// This file is the bottom of the crypto acceleration layer: windowed
// fixed-base precomputation (the BGMW radix-2^w method) and simultaneous
// multi-exponentiation (the generalised Shamir trick). Everything here is mathematically
// transparent — accelerated paths return bit-identical values to their
// naive counterparts, so operation meters and protocol transcripts are
// unaffected by whether a table is attached.

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

// WindowDigit extracts the i-th radix-2^w digit of e — the shared digit
// decomposition of every fixed-base table in the repository (this
// package's FixedBaseTable plus the point tables of internal/ec and
// internal/pairing, whose accumulation strategies differ but whose digit
// logic must stay in lockstep).
func WindowDigit(e *big.Int, i, w int) uint {
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
		if d := WindowDigit(e, i, w); d != 0 {
			t.mo.MulInto(acc, acc, t.rows[i][d])
		}
	}
	t.mo.montMul(acc, acc, t.mo.limbs(&ybuf, y))
	return bigFromElem(acc)
}

// MultiExp computes Π bases[i]^exps[i] mod m with one shared squaring
// chain (the generalised Shamir trick): max(bits) squarings plus one
// multiplication per set exponent bit, instead of a full square-and-
// multiply per base. The win is largest when exponents are short (the
// Burmester-Desmedt key assembly, whose exponents are bounded by the
// ring size) or when many bases share one verification equation.
// Negative exponents are resolved through modular inverses, so m must be
// coprime with the corresponding base.
func MultiExp(bases, exps []*big.Int, m *big.Int) (*big.Int, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, errors.New("mathx: MultiExp modulus must be positive")
	}
	if len(bases) != len(exps) {
		return nil, errors.New("mathx: MultiExp bases/exps length mismatch")
	}
	bs := make([]*big.Int, len(bases))
	es := make([]*big.Int, len(exps))
	maxBits := 0
	for i := range bases {
		if bases[i] == nil || exps[i] == nil {
			return nil, errors.New("mathx: MultiExp nil operand")
		}
		b, e := bases[i], exps[i]
		if e.Sign() < 0 {
			inv, err := ModInverse(b, m)
			if err != nil {
				return nil, err
			}
			b = inv
			e = new(big.Int).Neg(e)
		}
		bs[i] = new(big.Int).Mod(b, m)
		es[i] = e
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	acc := big.NewInt(1)
	for i := maxBits - 1; i >= 0; i-- {
		acc.Mul(acc, acc)
		acc.Mod(acc, m)
		for j := range bs {
			if es[j].Bit(i) == 1 {
				acc.Mul(acc, bs[j])
				acc.Mod(acc, m)
			}
		}
	}
	return acc, nil
}
