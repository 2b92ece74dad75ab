package mathx

import (
	"errors"
	"math/big"
	"math/bits"
)

// This file holds fixed-base precomputation in the Lim–Lee comb layout
// (CRYPTO '94). A table walk is mathematically transparent: it returns
// values bit-identical to the naive exponentiation, so operation meters
// and protocol transcripts do not depend on it. A table is built over
// the caller's Modulus and holds its entries in that modulus'
// representation (mont.go), so where the radix-2^52 lane runs, a
// two-block walk reads them as they are, one block per lane.

// combTeeth and combBlocks are the comb geometry every production table
// uses: h = 8 teeth and v = 2 blocks. A 160-bit exponent then walks in 9
// squarings and at most 20 products, about as fast as a radix-2^6 BGMW
// table's ~27 products, from 2·2^8 entries (64 KiB at 1024 bits, 80 KiB
// in the lane's 20 limbs) instead of 27·2^6 (216 KiB).
// BenchmarkCombGeometry measures the neighbours.
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
// entries live in the Montgomery domain of the table's Modulus in one
// flat array, so a walk is a chain of Montgomery products with a single
// conversion out; entry 1 of block 0 is the base's image. A table is
// immutable after construction and safe for concurrent use.
type FixedBaseTable struct {
	mo      *Modulus
	maxBits int
	h, v, b int
	// flat holds entry u of block j at ((j<<h)+u)·k, two pointers away
	// as an Elem's limbs are, so fmt shows none of them wherever it
	// reaches the table: the base may be a secret, such as S_ID.
	flat *elemRef
}

// NewFixedBaseTable precomputes the powers of base modulo mo's modulus
// for exponents up to maxBits bits, in mo's representation.
func NewFixedBaseTable(base *big.Int, mo *Modulus, maxBits int) (*FixedBaseTable, error) {
	return newCombTable(base, mo, maxBits, combTeeth, combBlocks)
}

// newCombTable builds a table of h teeth and v blocks; tests sweep the
// geometry through it.
func newCombTable(base *big.Int, mo *Modulus, maxBits, h, v int) (*FixedBaseTable, error) {
	if mo == nil {
		return nil, errors.New("mathx: fixed-base table needs a modulus")
	}
	if base == nil {
		return nil, errors.New("mathx: fixed-base base must be non-nil")
	}
	if maxBits < 1 {
		return nil, errors.New("mathx: fixed-base maxBits must be >= 1")
	}
	strips := h * v
	flat := make([]big.Word, v<<h*mo.k)
	t := &FixedBaseTable{
		mo:      mo,
		maxBits: maxBits,
		h:       h,
		v:       v,
		b:       (maxBits + strips - 1) / strips,
		flat:    &elemRef{&flat},
	}
	k := mo.k
	cur := mo.ToMont(base).limbs() // base^(2^(s·b)) for the current strip s
	for i := 0; i < h; i++ {
		for j := 0; j < v; j++ {
			blk := flat[(j<<h)*k : ((j+1)<<h)*k]
			if i == 0 {
				copy(blk[:k], mo.one)
			}
			// Entries with top bit i: the strip power times every entry
			// below 2^i.
			copy(blk[(1<<i)*k:], cur)
			for u := 1; u < 1<<i; u++ {
				mo.mul(blk[((1<<i)+u)*k:][:k], blk[u*k:][:k], cur)
			}
			if i < h-1 || j < v-1 {
				for s := 0; s < t.b; s++ {
					mo.mul(cur, cur, cur)
				}
			}
		}
	}
	return t, nil
}

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
// one product at a time; both give the same values.
func (t *FixedBaseTable) ExpMul(e, y *big.Int) *big.Int {
	if !t.Covers(e) {
		z := new(big.Int).Exp(t.base(), e, t.mo.m)
		if z == nil {
			return nil
		}
		return z.Mod(z.Mul(z, y), t.mo.m)
	}
	var ybuf [maxModulusWords]big.Word
	return t.expMul(e, t.mo.limbs(&ybuf, y))
}

// ExpMulScalar is ExpMul with a secret factor y, whose words enter the
// product with no test of their range: y's order must not exceed m, or
// the product runs through y.BigVarTime().
func (t *FixedBaseTable) ExpMulScalar(e *big.Int, y Scalar) *big.Int {
	if !t.Covers(e) || y.q.Cmp(t.mo.m) > 0 {
		return t.ExpMul(e, y.BigVarTime())
	}
	var ybuf [maxModulusWords]big.Word
	return t.expMul(e, t.mo.scalarLimbs(&ybuf, y))
}

// expMul is ExpMul for a covered exponent e and the factor's limbs yl.
func (t *FixedBaseTable) expMul(e *big.Int, yl []big.Word) *big.Int {
	var abuf [maxModulusWords]big.Word
	mo, ws := t.mo, e.Bits()
	acc := abuf[:mo.k]
	if mo.lane && t.v == 2 {
		t.combLane(acc, ws, yl)
	} else {
		copy(acc, mo.one)
		started := false
		for c := t.b - 1; c >= 0; c-- {
			if started {
				mo.mul(acc, acc, acc)
			}
			for j := t.v - 1; j >= 0; j-- {
				if u := t.digitAt(ws, j, c); u != 0 {
					mo.mul(acc, acc, t.entry(j, u))
					started = true
				}
			}
		}
		mo.mul(acc, acc, yl)
	}
	mo.reduce(acc, acc)
	return mo.bigOf(acc)
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
	return (*t.flat.w)[((j<<t.h)+u)*k:][:k]
}

// base returns the table's base mod m, from its image in entry 1 of
// block 0.
func (t *FixedBaseTable) base() *big.Int {
	img := t.entry(0, 1)
	return t.mo.FromMont(Elem{&elemRef{&img}})
}

// combLane is ExpMul's walk on amm52x20x2 for a two-block table: block 0
// runs in lane 0 and block 1 in lane 1, each column one squaring call
// and one call with the column's entries, a zero digit reading entry 0,
// so the calls do not depend on the digits (the entries read do). Two
// more calls join the lanes and y. It sets z, below 2m, to base^e·y mod
// m.
func (t *FixedBaseTable) combLane(z, ws, y []big.Word) {
	mo := t.mo
	col := func(j, c int) *[20]big.Word { return (*[20]big.Word)(t.entry(j, t.digitAt(ws, j, c))) }
	acc := pair52{*col(0, t.b-1), *col(1, t.b-1)}
	for c := t.b - 2; c >= 0; c-- {
		mo.mulPair(&acc, &acc, &acc)
		mo.mul2(&acc[0], &acc[0], col(0, c), &acc[1], &acc[1], col(1, c))
	}
	mo.mul(z, acc[0][:], acc[1][:])
	mo.mul(z, z, y)
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
