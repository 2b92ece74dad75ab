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
// The core loop is CIOS (coarsely integrated operand scanning): per
// limb of y, one pass adds x·y_i into a sliding accumulator window and a
// second adds the reduction multiple of m. Both passes run on math/big's
// assembly addMulVVW kernel (addmul.go); builds tagged math_big_pure_go,
// whose math/big has no assembly, use the generic loop in
// addmul_pure.go instead. Squaring is the same multiplication.

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

// SqrInto computes z = x² in the Montgomery domain; z may alias x. It is
// a plain multiplication: at the protocols' widths the kernel-driven CIOS
// multiply beats a separated squaring, whose halved partial products do
// not pay for its extra doubling and reduction passes.
func (mo *Modulus) SqrInto(z, x Elem) { mo.montMul(z, x, x) }

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
// powers. e = 0 yields the Montgomery image of 1. The result and the
// odd-power table share one allocation.
func (mo *Modulus) ExpElem(base Elem, e *big.Int) Elem {
	eb := e.BitLen()
	if e.Sign() < 0 {
		panic("mathx: ExpElem needs a non-negative exponent")
	}
	if eb == 0 {
		return mo.MontOne()
	}
	k, w := mo.k, expWindow(eb)
	// acc, then the odd powers base^1, base^3, ..., base^(2^w - 1): the
	// power for odd digit d sits at table[(d>>1)·k:][:k].
	flat := make([]big.Word, (1+1<<(w-1))*k)
	acc, table := Elem(flat[:k:k]), flat[k:]
	copy(table, base)
	if len(table) > k {
		mo.SqrInto(acc, base) // base², scratch until the first window
		for i := k; i < len(table); i += k {
			mo.MulInto(table[i:i+k], table[i-k:i], acc)
		}
	}
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
		pow := Elem(table[int(digit>>1)*k:][:k])
		if started {
			for j := 0; j < i-l+1; j++ {
				mo.SqrInto(acc, acc)
			}
			mo.MulInto(acc, acc, pow)
		} else {
			copy(acc, pow)
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
// over per-base exponentiation is largest when exponents are short or
// when many bases share one verification equation, as in the amortized
// GQ check.
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
