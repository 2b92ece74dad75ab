package mathx

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// This file is the fixed-width Montgomery-form modular arithmetic engine
// under the variable-base hot paths: the Burmester-Desmedt key assembly
// (equation 3), the GQ respond/verify folds and the DSA/Schnorr verify
// multi-exponentiation. A Modulus precomputes everything expensive about
// one modulus — the word count, -m^{-1} mod 2^W and R² mod m — exactly
// once; Elem values stay in the Montgomery domain across whole
// verification pipelines, converting on entry and leaving only at wire
// boundaries. Every operation is mathematically transparent: results are
// bit-identical to the math/big computation, so transcripts, keys and
// operation meters are unaffected by which engine ran.
//
// The core loops are CIOS (coarsely integrated operand scanning) with a
// dedicated squaring that halves the partial-product count. Everything
// is pure Go over math/bits intrinsics — no assembly, no dependencies.

// maxModulusWords bounds the fixed scratch buffers of the CIOS loops
// (64 words = 4096 bits on 64-bit platforms), far above the 1024/2048-bit
// moduli of the protocols.
const maxModulusWords = 64

// inverseCalls counts modular inversions performed through this package
// (ModInverse and the single inversion inside each batch-inversion call).
// Tests use the counter to prove the O(n) → O(1) inversion amortization
// of Montgomery's trick; the atomic add is negligible next to the
// extended-GCD it counts.
var inverseCalls atomic.Uint64

// InverseCalls returns the number of modular inversions performed so far
// process-wide.
func InverseCalls() uint64 { return inverseCalls.Load() }

// Elem is one residue in the Montgomery domain of a Modulus: a fixed-width
// little-endian limb vector of exactly the modulus' word count, holding
// v·R mod m. Elems are only meaningful with the Modulus that created them.
type Elem []big.Word

// Modulus is the precomputed context for Montgomery arithmetic modulo one
// odd m: the limb image of m, the word count k, n0 = -m^{-1} mod 2^W and
// R² mod m (R = 2^(W·k)). Construction costs one big.Int division; every
// subsequent operation is division-free. A Modulus is immutable after
// construction and safe for concurrent use.
type Modulus struct {
	m     *big.Int
	words []big.Word // little-endian limbs of m, length k
	k     int
	n0    big.Word // -m^{-1} mod 2^W
	r2    Elem     // R² mod m  (ToMont multiplier)
	one   Elem     // R mod m   (Montgomery image of 1)
}

// NewModulus precomputes a Montgomery context for an odd modulus > 1.
func NewModulus(m *big.Int) (*Modulus, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, errors.New("mathx: Montgomery modulus must be positive")
	}
	if m.Bit(0) == 0 {
		return nil, errors.New("mathx: Montgomery modulus must be odd")
	}
	if m.Cmp(One) == 0 {
		return nil, errors.New("mathx: Montgomery modulus must be > 1")
	}
	limbs := m.Bits()
	k := len(limbs)
	if k > maxModulusWords {
		return nil, fmt.Errorf("mathx: modulus of %d words exceeds the %d-word Montgomery engine", k, maxModulusWords)
	}
	mo := &Modulus{
		m:     new(big.Int).Set(m),
		words: append([]big.Word(nil), limbs...),
		k:     k,
	}
	// n0 = -m^{-1} mod 2^W by Newton iteration: each step doubles the
	// number of correct low bits, and odd m guarantees invertibility.
	inv := uint(mo.words[0]) // 1 correct bit
	for i := 0; i < 6; i++ {
		inv *= 2 - uint(mo.words[0])*inv
	}
	mo.n0 = big.Word(-inv)
	// R mod m and R² mod m via one-time big.Int reductions.
	var buf [maxModulusWords]big.Word
	r := new(big.Int).Lsh(One, uint(k*bits.UintSize))
	mo.one = append(Elem(nil), mo.limbs(&buf, r)...)
	mo.r2 = append(Elem(nil), mo.limbs(&buf, new(big.Int).Mul(r, r))...)
	return mo, nil
}

// Int returns the modulus as a big.Int. Callers must not mutate it.
func (mo *Modulus) Int() *big.Int { return mo.m }

// Words returns the modulus' limb count (the fixed width of its Elems).
func (mo *Modulus) Words() int { return mo.k }

// limbs widens v mod m (v itself when already in [0, m)) to the fixed
// width in a caller-owned scratch buffer, typically on the caller's
// stack, so a transient raw operand costs no allocation.
func (mo *Modulus) limbs(buf *[maxModulusWords]big.Word, v *big.Int) Elem {
	if v.Sign() < 0 || v.Cmp(mo.m) >= 0 {
		v = new(big.Int).Mod(v, mo.m)
	}
	e := buf[:mo.k]
	clear(e)
	copy(e, v.Bits())
	return e
}

// bigFromElem reads a fixed-width limb vector back into a big.Int.
func bigFromElem(e Elem) *big.Int {
	// Trim high zero limbs; big.Int.SetBits requires a normalized slice.
	i := len(e)
	for i > 0 && e[i-1] == 0 {
		i--
	}
	return new(big.Int).SetBits(append([]big.Word(nil), e[:i]...))
}

// ToMont converts v (any integer; reduced mod m first unless already in
// [0, m)) into the Montgomery domain: one Montgomery multiplication by R².
func (mo *Modulus) ToMont(v *big.Int) Elem {
	var buf [maxModulusWords]big.Word
	z := make(Elem, mo.k)
	mo.montMul(z, mo.limbs(&buf, v), mo.r2)
	return z
}

// FromMont converts an Elem back to a canonical big.Int residue in [0, m):
// one Montgomery multiplication by 1.
func (mo *Modulus) FromMont(e Elem) *big.Int {
	var zbuf, obuf [maxModulusWords]big.Word
	z, oneLimb := zbuf[:mo.k], obuf[:mo.k]
	oneLimb[0] = 1
	mo.montMul(z, e, oneLimb)
	return bigFromElem(z)
}

// MontOne returns the Montgomery image of 1 (a fresh copy).
func (mo *Modulus) MontOne() Elem {
	return append(Elem(nil), mo.one...)
}

// Mul returns x·y in the Montgomery domain.
func (mo *Modulus) Mul(x, y Elem) Elem {
	z := make(Elem, mo.k)
	mo.montMul(z, x, y)
	return z
}

// MulInto computes z = x·y in the Montgomery domain; z may alias x or y.
func (mo *Modulus) MulInto(z, x, y Elem) { mo.montMul(z, x, y) }

// Sqr returns x² in the Montgomery domain.
func (mo *Modulus) Sqr(x Elem) Elem {
	z := make(Elem, mo.k)
	mo.SqrInto(z, x)
	return z
}

// SqrInto computes z = x² in the Montgomery domain; z may alias x.
// At the 16/32-word sizes the fully unrolled CIOS multiply beats the
// generic separated squaring, so those widths square through montMul.
func (mo *Modulus) SqrInto(z, x Elem) {
	if mo.k == 16 || mo.k == 32 {
		mo.montMul(z, x, x)
		return
	}
	mo.montSqr(z, x)
}

// addMulVVW computes z += x·y and returns the outgoing carry, the inner
// kernel of every Montgomery operation. Requires len(x) >= len(z); the
// range-over-z form lets the compiler eliminate the bounds checks.
func addMulVVW(z, x []big.Word, y big.Word) big.Word {
	yy := uint(y)
	x = x[:len(z)]
	var c uint
	for i, zi := range z {
		hi, lo := bits.Mul(uint(x[i]), yy)
		lo, cc := bits.Add(lo, c, 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(zi), 0)
		z[i] = big.Word(lo)
		c = hi + cc
	}
	return big.Word(c)
}

// mulAddWWW is one word step of addMulVVW: z + x·y + c over a single
// limb, returning the low word and the outgoing carry. Small enough that
// the compiler inlines it into the unrolled kernels.
func mulAddWWW(xi, y, zi, c uint) (uint, uint) {
	hi, lo := bits.Mul(xi, y)
	lo, cc := bits.Add(lo, c, 0)
	hi += cc
	lo, cc = bits.Add(lo, zi, 0)
	return lo, hi + cc
}

// addMulVVW16 is addMulVVW fully unrolled for a 16-word (1024-bit on
// 64-bit platforms) window with a carry-in: fixed-size array pointers let
// the compiler drop every bounds check and loop branch, which is worth
// ~25% on the CIOS inner product.
func addMulVVW16(z, x *[16]big.Word, y big.Word, c uint) uint {
	yy := uint(y)
	var w uint
	w, c = mulAddWWW(uint(x[0]), yy, uint(z[0]), c)
	z[0] = big.Word(w)
	w, c = mulAddWWW(uint(x[1]), yy, uint(z[1]), c)
	z[1] = big.Word(w)
	w, c = mulAddWWW(uint(x[2]), yy, uint(z[2]), c)
	z[2] = big.Word(w)
	w, c = mulAddWWW(uint(x[3]), yy, uint(z[3]), c)
	z[3] = big.Word(w)
	w, c = mulAddWWW(uint(x[4]), yy, uint(z[4]), c)
	z[4] = big.Word(w)
	w, c = mulAddWWW(uint(x[5]), yy, uint(z[5]), c)
	z[5] = big.Word(w)
	w, c = mulAddWWW(uint(x[6]), yy, uint(z[6]), c)
	z[6] = big.Word(w)
	w, c = mulAddWWW(uint(x[7]), yy, uint(z[7]), c)
	z[7] = big.Word(w)
	w, c = mulAddWWW(uint(x[8]), yy, uint(z[8]), c)
	z[8] = big.Word(w)
	w, c = mulAddWWW(uint(x[9]), yy, uint(z[9]), c)
	z[9] = big.Word(w)
	w, c = mulAddWWW(uint(x[10]), yy, uint(z[10]), c)
	z[10] = big.Word(w)
	w, c = mulAddWWW(uint(x[11]), yy, uint(z[11]), c)
	z[11] = big.Word(w)
	w, c = mulAddWWW(uint(x[12]), yy, uint(z[12]), c)
	z[12] = big.Word(w)
	w, c = mulAddWWW(uint(x[13]), yy, uint(z[13]), c)
	z[13] = big.Word(w)
	w, c = mulAddWWW(uint(x[14]), yy, uint(z[14]), c)
	z[14] = big.Word(w)
	w, c = mulAddWWW(uint(x[15]), yy, uint(z[15]), c)
	z[15] = big.Word(w)
	return c
}

// addMulWin is addMulVVW over a window of exactly len(z) words,
// dispatching 16- and 32-word windows (1024/2048-bit moduli) to the
// unrolled kernel. Requires len(x) >= len(z).
func addMulWin(z, x []big.Word, y big.Word) big.Word {
	switch len(z) {
	case 16:
		return big.Word(addMulVVW16((*[16]big.Word)(z), (*[16]big.Word)(x), y, 0))
	case 32:
		c := addMulVVW16((*[16]big.Word)(z), (*[16]big.Word)(x), y, 0)
		return big.Word(addMulVVW16((*[16]big.Word)(z[16:]), (*[16]big.Word)(x[16:]), y, c))
	}
	return addMulVVW(z, x, y)
}

// subVV computes z = x - y and returns the outgoing borrow; the slices
// must have equal length.
func subVV(z, x, y []big.Word) big.Word {
	y = y[:len(z)]
	x = x[:len(z)]
	var b uint
	for i := range z {
		d, bb := bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
		b = bb
	}
	return big.Word(b)
}

// addVW computes z += y for a single incoming word and returns the
// outgoing carry.
func addVW(z []big.Word, y big.Word) big.Word {
	c := uint(y)
	for i := range z {
		if c == 0 {
			return 0
		}
		s, cc := bits.Add(uint(z[i]), c, 0)
		z[i] = big.Word(s)
		c = cc
	}
	return big.Word(c)
}

// montMul computes z = x·y·R^{-1} mod m with the CIOS method over a
// sliding 2k-word accumulator (the math/big montgomery shape). z may
// alias x or y: the product accumulates in a stack scratch buffer and is
// copied out after the final conditional subtraction.
func (mo *Modulus) montMul(z, x, y Elem) {
	k := mo.k
	n := mo.words
	var tbuf [2 * maxModulusWords]big.Word
	t := tbuf[:2*k]
	for i := range t {
		t[i] = 0
	}
	var c big.Word
	for i := 0; i < k; i++ {
		win := t[i : i+k]
		c2 := addMulWin(win, x, y[i])
		q := t[i] * mo.n0
		c3 := addMulWin(win, n, q)
		cx := c + c2
		cy := cx + c3
		t[i+k] = cy
		if cx < c2 || cy < c3 {
			c = 1
		} else {
			c = 0
		}
	}
	// The result t[k:2k] with overflow bit c is < 2m: one conditional
	// subtraction brings it into [0, m).
	if c != 0 || geWords(t[k:], n) {
		subVV(z, t[k:], n)
	} else {
		copy(z, t[k:])
	}
}

// montSqr computes z = x²·R^{-1} mod m: the off-diagonal partial products
// are computed once and doubled (k(k-1)/2 multiplies instead of k²), the
// diagonal added, then a separated Montgomery reduction pass runs over the
// double-width product. z may alias x.
func (mo *Modulus) montSqr(z, x Elem) {
	k := mo.k
	n := mo.words
	var tbuf [2*maxModulusWords + 1]big.Word
	t := tbuf[:2*k+1]
	for i := range t {
		t[i] = 0
	}
	// Off-diagonal products x[i]·x[j], j > i.
	for i := 0; i < k-1; i++ {
		t[i+k] = addMulVVW(t[2*i+1:i+k], x[i+1:], x[i])
	}
	// Double the cross terms: t <<= 1 over the 2k low words.
	var carry uint
	for i := 0; i < 2*k; i++ {
		w := uint(t[i])
		t[i] = big.Word(w<<1 | carry)
		carry = w >> (bits.UintSize - 1)
	}
	t[2*k] = big.Word(carry)
	// Add the diagonal x[i]² at positions 2i, 2i+1.
	var c uint
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul(uint(x[i]), uint(x[i]))
		s, cc := bits.Add(uint(t[2*i]), lo, c)
		t[2*i] = big.Word(s)
		s, cc = bits.Add(uint(t[2*i+1]), hi, cc)
		t[2*i+1] = big.Word(s)
		c = cc
	}
	t[2*k] += big.Word(c) // cannot overflow: x² fits 2k words exactly
	// Separated Montgomery reduction over the double-width product.
	for i := 0; i < k; i++ {
		q := t[i] * mo.n0
		c := addMulWin(t[i:i+k], n, q)
		// Ripple the window carry into the high words (bounded by the
		// 2k+1-word value: x² + m·Σq_i·2^{Wi} < R² + R·m < 2·R²).
		for j := i + k; c != 0; j++ {
			s, cc := bits.Add(uint(t[j]), uint(c), 0)
			t[j] = big.Word(s)
			c = big.Word(cc)
		}
	}
	// Result occupies t[k .. 2k] with t[2k] the overflow word.
	if t[2*k] != 0 || geWords(t[k:2*k], n) {
		subVV(z, t[k:2*k], n)
	} else {
		copy(z, t[k:2*k])
	}
}

// geWords reports whether a >= b for equal-length little-endian limbs.
func geWords(a, b []big.Word) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return true
}

// expWindow picks the sliding-window width for an exponent size.
func expWindow(bits int) int {
	switch {
	case bits <= 8:
		return 1
	case bits <= 48:
		return 3
	case bits <= 160:
		return 4
	case bits <= 768:
		return 5
	default:
		return 6
	}
}

// ExpElem computes base^e in the Montgomery domain for a non-negative
// exponent, with a left-to-right sliding window over precomputed odd
// powers. e = 0 yields the Montgomery image of 1.
func (mo *Modulus) ExpElem(base Elem, e *big.Int) Elem {
	eb := e.BitLen()
	if e.Sign() < 0 {
		panic("mathx: ExpElem needs a non-negative exponent")
	}
	if eb == 0 {
		return mo.MontOne()
	}
	w := expWindow(eb)
	// Odd powers base^1, base^3, ..., base^(2^w - 1).
	table := make([]Elem, 1<<(w-1))
	table[0] = append(Elem(nil), base...)
	if len(table) > 1 {
		b2 := mo.Sqr(base)
		for i := 1; i < len(table); i++ {
			table[i] = mo.Mul(table[i-1], b2)
		}
	}
	acc := make(Elem, mo.k)
	started := false
	for i := eb - 1; i >= 0; {
		if e.Bit(i) == 0 {
			if started {
				mo.SqrInto(acc, acc)
			}
			i--
			continue
		}
		// Find the longest window [i..l] with a set low bit, width <= w.
		l := i - w + 1
		if l < 0 {
			l = 0
		}
		for e.Bit(l) == 0 {
			l++
		}
		var digit uint
		for j := i; j >= l; j-- {
			digit = digit<<1 | uint(e.Bit(j))
		}
		if started {
			for j := 0; j < i-l+1; j++ {
				mo.SqrInto(acc, acc)
			}
			mo.MulInto(acc, acc, table[digit>>1])
		} else {
			copy(acc, table[digit>>1])
			started = true
		}
		i = l - 1
	}
	return acc
}

// Exp computes base^e mod m through the Montgomery engine, bit-identical
// to (*big.Int).Exp / mathx.ModExp. Negative exponents are resolved
// through a modular inverse (m must be coprime with base).
func (mo *Modulus) Exp(base, e *big.Int) (*big.Int, error) {
	if e.Sign() < 0 {
		inv, err := ModInverse(base, mo.m)
		if err != nil {
			return nil, err
		}
		return mo.FromMont(mo.ExpElem(mo.ToMont(inv), new(big.Int).Neg(e))), nil
	}
	return mo.FromMont(mo.ExpElem(mo.ToMont(base), e)), nil
}

// MultiExpElem computes Π bases[i]^exps[i] in the Montgomery domain with
// one interleaved squaring chain shared by every base (windowed Shamir
// trick): max-bits squarings total plus, per base, a sliding window's
// worth of multiplications (~bits/(w+1) instead of one per set bit) over
// its precomputed odd powers. Exponents must be non-negative. The win
// over per-base exponentiation is largest when exponents are short — the
// BD key assembly — or when many bases share one verification equation.
func (mo *Modulus) MultiExpElem(bases []Elem, exps []*big.Int) (Elem, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("mathx: MultiExpElem bases/exps length mismatch")
	}
	maxBits := 0
	for i, e := range exps {
		if e == nil || bases[i] == nil {
			return nil, errors.New("mathx: MultiExpElem nil operand")
		}
		if e.Sign() < 0 {
			return nil, errors.New("mathx: MultiExpElem needs non-negative exponents")
		}
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return mo.MontOne(), nil
	}
	// Decompose every exponent into left-to-right sliding windows of odd
	// digits and bucket the pending multiplications by each window's low
	// bit; the merge pass below then walks one squaring chain and folds in
	// every base's window where it lands.
	type pendMul struct {
		base  int
		digit uint // odd window digit; table index is digit>>1
	}
	pend := make([][]pendMul, maxBits)
	tables := make([][]Elem, len(bases))
	for j, e := range exps {
		eb := e.BitLen()
		if eb == 0 {
			continue
		}
		w := expWindow(eb)
		maxDigit := uint(0)
		for i := eb - 1; i >= 0; {
			if e.Bit(i) == 0 {
				i--
				continue
			}
			l := i - w + 1
			if l < 0 {
				l = 0
			}
			for e.Bit(l) == 0 {
				l++
			}
			var digit uint
			for t := i; t >= l; t-- {
				digit = digit<<1 | uint(e.Bit(t))
			}
			if digit > maxDigit {
				maxDigit = digit
			}
			pend[l] = append(pend[l], pendMul{base: j, digit: digit})
			i = l - 1
		}
		// Odd powers base, base^3, ... up to the largest digit this
		// exponent actually uses (entries are read-only; index 0 aliases
		// the caller's element).
		tab := make([]Elem, maxDigit/2+1)
		tab[0] = bases[j]
		if len(tab) > 1 {
			b2 := mo.Sqr(bases[j])
			for i := 1; i < len(tab); i++ {
				tab[i] = mo.Mul(tab[i-1], b2)
			}
		}
		tables[j] = tab
	}
	var acc Elem
	for i := maxBits - 1; i >= 0; i-- {
		if acc != nil {
			mo.SqrInto(acc, acc)
		}
		for _, pm := range pend[i] {
			if acc == nil {
				acc = append(Elem(nil), tables[pm.base][pm.digit>>1]...)
			} else {
				mo.MulInto(acc, acc, tables[pm.base][pm.digit>>1])
			}
		}
	}
	return acc, nil
}

// MultiExp is MultiExpElem over big.Int operands: bases convert into the
// Montgomery domain once, negative exponents resolve through modular
// inverses, and the accumulated product converts back out. Bit-identical
// to mathx.MultiExp.
func (mo *Modulus) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	bs := make([]Elem, len(bases))
	es := make([]*big.Int, len(exps))
	if len(bases) != len(exps) {
		return nil, errors.New("mathx: MultiExp bases/exps length mismatch")
	}
	for i := range bases {
		if bases[i] == nil || exps[i] == nil {
			return nil, errors.New("mathx: MultiExp nil operand")
		}
		b, e := bases[i], exps[i]
		if e.Sign() < 0 {
			inv, err := ModInverse(b, mo.m)
			if err != nil {
				return nil, err
			}
			b = inv
			e = new(big.Int).Neg(e)
		}
		bs[i] = mo.ToMont(b)
		es[i] = e
	}
	acc, err := mo.MultiExpElem(bs, es)
	if err != nil {
		return nil, err
	}
	return mo.FromMont(acc), nil
}

// IsOne reports whether e is the Montgomery image of 1.
func (mo *Modulus) IsOne(e Elem) bool {
	for i := range e {
		if e[i] != mo.one[i] {
			return false
		}
	}
	return len(e) == mo.k
}

// ProductElem folds Elems into their Montgomery-domain product. An empty
// slice yields the image of 1 (the empty-product convention of the batch
// verification equations).
func (mo *Modulus) ProductElem(es []Elem) Elem {
	acc := mo.MontOne()
	for _, e := range es {
		mo.MulInto(acc, acc, e)
	}
	return acc
}

// Product returns Π values mod m, bit-identical to ProductMod: an empty
// slice yields 1 and values outside [0, m) are reduced first. The values
// never enter the domain. Each Montgomery product of two raw residues
// divides by R once, so the chain over k values leaves Π v·R^{-(k-1)},
// and one final product with R^k mod m, raised from R's Montgomery image
// in ~2·log2(k) steps, cancels it. That is k Montgomery products plus the
// raise, with no division and no per-value conversion.
func (mo *Modulus) Product(values []*big.Int) *big.Int {
	if len(values) == 0 {
		return big.NewInt(1)
	}
	var abuf, vbuf [maxModulusWords]big.Word
	acc := mo.limbs(&abuf, values[0])
	for _, v := range values[1:] {
		mo.montMul(acc, acc, mo.limbs(&vbuf, v))
	}
	// R^k is the Montgomery image of R^(k-1); R's own image is R² mod m.
	corr := vbuf[:mo.k]
	copy(corr, mo.one)
	e := len(values) - 1
	for b := bits.Len(uint(e)) - 1; b >= 0; b-- {
		mo.SqrInto(corr, corr)
		if e>>b&1 == 1 {
			mo.montMul(corr, corr, mo.r2)
		}
	}
	mo.montMul(acc, acc, corr)
	return bigFromElem(acc)
}

// BatchInverseElem inverts every Elem with Montgomery's trick: prefix
// products, ONE modular inversion, then a backward sweep — 3(n-1)
// multiplications plus a single extended-GCD, against n extended-GCDs for
// per-element inversion. Fails if any input (equivalently, the product) is
// not invertible.
func (mo *Modulus) BatchInverseElem(es []Elem) ([]Elem, error) {
	n := len(es)
	if n == 0 {
		return nil, nil
	}
	// prefix[i] = e_0 · ... · e_i  (Montgomery domain).
	prefix := make([]Elem, n)
	prefix[0] = append(Elem(nil), es[0]...)
	for i := 1; i < n; i++ {
		prefix[i] = mo.Mul(prefix[i-1], es[i])
	}
	// One inversion of the total product.
	totalInv, err := ModInverse(mo.FromMont(prefix[n-1]), mo.m)
	if err != nil {
		return nil, fmt.Errorf("mathx: batch inversion: %w", err)
	}
	acc := mo.ToMont(totalInv) // (e_0···e_{n-1})^{-1} in the domain
	out := make([]Elem, n)
	for i := n - 1; i > 0; i-- {
		out[i] = mo.Mul(acc, prefix[i-1])
		mo.MulInto(acc, acc, es[i])
	}
	out[0] = acc
	return out, nil
}

// BatchInverse inverts every value modulo m with a single extended-GCD
// (Montgomery's trick over big.Int operands). Bit-identical to calling
// ModInverse per element; fails if any element is not invertible.
func (mo *Modulus) BatchInverse(values []*big.Int) ([]*big.Int, error) {
	es := make([]Elem, len(values))
	for i, v := range values {
		if v == nil {
			return nil, errors.New("mathx: BatchInverse nil value")
		}
		es[i] = mo.ToMont(v)
	}
	inv, err := mo.BatchInverseElem(es)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(inv))
	for i, e := range inv {
		out[i] = mo.FromMont(e)
	}
	return out, nil
}
