package mathx

import (
	"errors"
	"math/big"
	"math/bits"
)

// This file holds fixed-base precomputation in the Lim–Lee comb layout
// (CRYPTO '94). A table walk is mathematically transparent: it returns
// values bit-identical to the naive exponentiation, so operation meters
// and protocol transcripts do not depend on it. The table holds one
// format, 16-word Montgomery entries; where the radix-2^52 lane runs, a
// two-block walk reads them as they are, one block per lane, and one
// constant per table (combCorrection) cancels the powers of two that
// reading leaves. A lane-format copy of the table would skip the
// conversions at the price of a second 64 KiB per table.

// combTeeth and combBlocks are the comb geometry every production table
// uses: h = 8 teeth and v = 2 blocks. A 160-bit exponent then walks in 9
// squarings and at most 20 products, about as fast as a radix-2^6 BGMW
// table's ~27 products, from 2·2^8 entries (64 KiB at 1024 bits) instead
// of 27·2^6 (216 KiB). BenchmarkCombGeometry measures the neighbours.
const (
	combTeeth  = 8
	combBlocks = 2
)

// FixedBaseTable holds the precomputed powers of one long-lived base —
// a group generator, an identity key or a roster's inverse identity
// product. An exponent of up to maxBits bits is cut into h·v strips of
// b = ceil(maxBits/(h·v)) bits; strip t starts at bit t·b, and the
// strips i·v+j for i < h make up tooth set j. Entry u of block j is
//
//	Π_{i : bit i of u} base^(2^((i·v+j)·b))
//
// so base^e = Π_{k<b} (Π_j block[j][u_jk])^(2^k), where bit i of u_jk
// is bit (i·v+j)·b+k of e: b-1 squarings and at most v·b products. The
// entries live in the Montgomery domain of the (odd) modulus in one flat
// array, so a walk is a chain of Montgomery products with a single
// conversion out. A table is immutable after construction and safe for
// concurrent use.
type FixedBaseTable struct {
	base    *big.Int // base mod m, for the big.Int fallback
	mo      *Modulus
	maxBits int
	h, v, b int
	flat    []big.Word  // entry u of block j at ((j<<h)+u)·k
	lane    *[20]uint64 // combLane's correction; nil where the walk runs on montMul
}

// NewFixedBaseTable precomputes the powers of base modulo an odd mod for
// exponents up to maxBits bits.
func NewFixedBaseTable(base, mod *big.Int, maxBits int) (*FixedBaseTable, error) {
	return newCombTable(base, mod, maxBits, combTeeth, combBlocks)
}

// newCombTable builds a table of h teeth and v blocks; tests sweep the
// geometry through it.
func newCombTable(base, mod *big.Int, maxBits, h, v int) (*FixedBaseTable, error) {
	if mod == nil || mod.Cmp(One) <= 0 {
		return nil, errors.New("mathx: fixed-base modulus must be > 1")
	}
	if base == nil {
		return nil, errors.New("mathx: fixed-base base must be non-nil")
	}
	if maxBits < 1 {
		return nil, errors.New("mathx: fixed-base maxBits must be >= 1")
	}
	mo, err := NewModulus(mod)
	if err != nil {
		return nil, err
	}
	strips := h * v
	t := &FixedBaseTable{
		base:    new(big.Int).Mod(base, mod),
		mo:      mo,
		maxBits: maxBits,
		h:       h,
		v:       v,
		b:       (maxBits + strips - 1) / strips,
		flat:    make([]big.Word, v<<h*mo.k),
	}
	k := mo.k
	cur := mo.ToMont(t.base).w // base^(2^(s·b)) for the current strip s
	for i := 0; i < h; i++ {
		for j := 0; j < v; j++ {
			blk := t.flat[(j<<h)*k : ((j+1)<<h)*k]
			if i == 0 {
				copy(blk[:k], mo.one)
			}
			// Entries with top bit i: the strip power times every entry
			// below 2^i.
			copy(blk[(1<<i)*k:], cur)
			for u := 1; u < 1<<i; u++ {
				mo.montMul(blk[((1<<i)+u)*k:][:k], blk[u*k:][:k], cur)
			}
			if i < h-1 || j < v-1 {
				for s := 0; s < t.b; s++ {
					mo.sqrInto(cur, cur)
				}
			}
		}
	}
	if mo.lane != nil && v == 2 {
		t.lane = new([20]uint64)
		to52(t.lane, mo.limbs(&[maxModulusWords]big.Word{}, combCorrection(mod, t.b)))
	}
	return t, nil
}

// combCorrection returns 2^(1008+32·2^b) mod m, the constant that cancels
// the powers of two a b-column combLane walk leaves. An entry holds its
// value times R = 2^1024, and its lane reads it as is, so each product
// with an entry multiplies by 2^(1024-1040) = 2^-16 more than its value,
// and each squaring doubles the excess. A lane's accumulator thus ends at
// its value times 2^(1056-16·2^b), whatever the digits; joining the two
// lanes, multiplying y by the correction and joining the results divide
// by R' three times more.
func combCorrection(m *big.Int, b int) *big.Int {
	v := new(big.Int).Lsh(One, 32)
	for range b {
		v.Mod(v.Mul(v, v), m)
	}
	return v.Mod(v.Lsh(v, 1008), m)
}

// MaxBits returns the largest exponent bit length the table covers.
func (t *FixedBaseTable) MaxBits() int { return t.maxBits }

// Covers reports whether the table path applies to exponent e
// (non-negative and within the precomputed bit range).
func (t *FixedBaseTable) Covers(e *big.Int) bool {
	return e != nil && e.Sign() >= 0 && e.BitLen() <= t.maxBits
}

// Exp returns base^e mod m. Covered exponents walk the table; anything
// else — negative or oversized — falls back to (*big.Int).Exp with its
// exact semantics, including the nil result for a negative exponent of a
// non-invertible base. Results are bit-identical to the naive
// computation.
func (t *FixedBaseTable) Exp(e *big.Int) *big.Int { return t.ExpMul(e, One) }

// ExpMul returns base^e · y mod m, bit-identical to Exp(e)·y mod m. The
// factor y rides the conversion out of the Montgomery domain — a raw
// operand there divides out the accumulator's R — so it costs no extra
// multiplication and no division. A two-block table over a modulus the
// radix-2^52 lane serves walks on that lane (combLane), every other one
// on montMul; both give the same limbs.
func (t *FixedBaseTable) ExpMul(e, y *big.Int) *big.Int {
	if !t.Covers(e) {
		z := new(big.Int).Exp(t.base, e, t.mo.m)
		if z == nil {
			return nil
		}
		return z.Mod(z.Mul(z, y), t.mo.m)
	}
	var abuf, ybuf [maxModulusWords]big.Word
	mo, k := t.mo, t.mo.k
	acc := abuf[:k]
	if t.lane != nil {
		t.combLane(acc, e.Bits(), mo.limbs(&ybuf, y))
		return bigFromLimbs(acc)
	}
	copy(acc, mo.one)
	ws := e.Bits()
	started := false
	for c := t.b - 1; c >= 0; c-- {
		if started {
			mo.sqrInto(acc, acc)
		}
		for j := t.v - 1; j >= 0; j-- {
			if u := t.digitAt(ws, j, c); u != 0 {
				mo.montMul(acc, acc, t.entry(j, u))
				started = true
			}
		}
	}
	mo.montMul(acc, acc, mo.limbs(&ybuf, y))
	return bigFromLimbs(acc)
}

// digitAt returns column c's digit u of block j: bit i of u is bit
// (i·v+j)·b+c of the exponent ws.
func (t *FixedBaseTable) digitAt(ws []big.Word, j, c int) int {
	var u int
	for i, pos := 0, j*t.b+c; i < t.h; i, pos = i+1, pos+t.v*t.b {
		u |= int(wordBit(ws, pos)) << i
	}
	return u
}

// entry returns entry u of block j.
func (t *FixedBaseTable) entry(j, u int) []big.Word {
	k := t.mo.k
	return t.flat[((j<<t.h)+u)*k:][:k]
}

// combLane is ExpMul's walk on amm52x20x2 for a two-block table: block 0
// runs in lane 0 and block 1 in lane 1, each column one squaring call
// and one call with the column's entries, a zero digit reading entry 0,
// so the calls do not depend on the digits (the entries read do). Two
// more calls join the lanes with y times the table's correction
// (combCorrection). It sets z to base^e·y mod m.
func (t *FixedBaseTable) combLane(z, ws, y []big.Word) {
	ln := t.mo.lane
	var acc, u pair52
	to52(&acc[0], t.entry(0, t.digitAt(ws, 0, t.b-1)))
	to52(&acc[1], t.entry(1, t.digitAt(ws, 1, t.b-1)))
	for c := t.b - 2; c >= 0; c-- {
		ln.mul(&acc, &acc, &acc)
		to52(&u[0], t.entry(0, t.digitAt(ws, 0, c)))
		to52(&u[1], t.entry(1, t.digitAt(ws, 1, c)))
		ln.mul(&acc, &acc, &u)
	}
	to52(&u[1], y)
	ln.mul2(&acc[0], &acc[0], &acc[1], &acc[1], &u[1], t.lane)
	ln.mul1(&acc[0], &acc[0], &acc[1])
	ln.store(z, &acc[0])
}

// wordBit returns bit pos of the little-endian word vector ws (zero past
// its end).
func wordBit(ws []big.Word, pos int) big.Word {
	w := pos / bits.UintSize
	if w >= len(ws) {
		return 0
	}
	return ws[w] >> (pos % bits.UintSize) & 1
}
