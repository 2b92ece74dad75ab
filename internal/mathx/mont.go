package mathx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the fixed-width Montgomery-form modular arithmetic engine
// under the variable-base hot paths: the Burmester-Desmedt key assembly
// (equation 3), round 2's edge powers and the GQ commitment and eq. 2
// verification core. A Modulus precomputes everything expensive about
// one modulus — the word count, -m^{-1} mod 2^W and R² mod m — exactly
// once; Elem values stay in the Montgomery domain across whole
// verification pipelines, entering through ToMont and leaving through
// FromMont alone, since no other package can read their limbs. Every
// operation is mathematically transparent: results are
// bit-identical to the math/big computation, so transcripts, keys and
// operation meters are unaffected by which engine ran.
//
// The core loop is CIOS (coarsely integrated operand scanning): per
// limb of y, one pass adds x·y_i into a sliding accumulator window and a
// second adds the reduction multiple of m. At the protocols' 1024 bits
// (16 words) on amd64 CPUs with ADX and BMI2, one assembly call runs the
// whole product: both passes of every row unrolled, and a branch-free
// final subtraction (montmul_amd64.s). Every other width, CPU and
// architecture runs montMulGeneric, whose passes call math/big's
// assembly addMulVVW kernel (addmul.go); builds tagged math_big_pure_go,
// whose math/big has no assembly, use neither and run the generic loop
// in addmul_pure.go. Squaring is the same multiplication.
//
// Powers come in two kinds. A public exponent (the GQ e, a challenge,
// a ring size) runs on ExpElem's sliding window, whose schedule follows
// the exponent's bits. A secret exponent (a member's r, r' or a DH
// exponent) runs on the fixed window below, through ExpPair and
// ExpFixed (amm52.go): 4-bit digits over a public bit bound, with each
// table entry picked by a masked scan, so the schedule depends on the
// bound alone. On amd64 CPUs with AVX-512 IFMA a 16-word modulus runs
// two such chains side by side in one radix-2^52 kernel call per
// product (amm52_amd64.s), and so do the raw product chains, the prefix
// chain of equation (3) and ExpElem above 8 bits (amm52.go); every
// other case runs each chain on montMul. All of them return the same
// limbs.

// maxModulusWords bounds the fixed scratch buffers of the CIOS loops
// (64 words = 4096 bits on 64-bit platforms), far above the 1024/2048-bit
// moduli of the protocols.
const maxModulusWords = 64

// Elem is one residue in the Montgomery domain of a Modulus: a fixed-width
// little-endian limb vector of exactly the modulus' word count, holding
// v·R mod m in [0, m). Elems are only meaningful with the Modulus that
// created them. An Elem is opaque, as the Go toolchain's
// crypto/internal/fips140/bigmod keeps its Nat: its limbs are
// unexported, so a residue reaches a canonical big.Int, the wire or a
// SetBits only through FromMont, and it formats as a fixed token. Inside
// this package the arithmetic works on the limbs, and each exported
// method unwraps its Elems at the boundary. The zero Elem holds no
// residue.
type Elem struct{ w []big.Word }

// Format prints the same token for every verb, so an Elem in a log line
// or a wrapped error shows no limb of its residue.
func (Elem) Format(f fmt.State, _ rune) { io.WriteString(f, "mathx.Elem(redacted)") }

// Modulus is the precomputed context for Montgomery arithmetic modulo one
// odd m: the limb image of m, the word count k, n0 = -m^{-1} mod 2^W and
// R² mod m (R = 2^(W·k)). Construction costs one big.Int division; every
// subsequent operation is division-free. A Modulus is immutable after
// construction, apart from its cache of R powers (rPow), and safe for
// concurrent use.
type Modulus struct {
	m     *big.Int
	words []big.Word // little-endian limbs of m, length k
	k     int
	n0    big.Word   // -m^{-1} mod 2^W
	r2    []big.Word // R² mod m  (ToMont multiplier)
	one   []big.Word // R mod m   (Montgomery image of 1)
	asm   bool       // montMul runs the montMul1024 kernel
	lane  *lane52    // the radix-2^52 chains' amm52x20x2 state; nil where that kernel does not run

	rpow *rpowCache
}

// rpowCache holds twoPow's results, rPow's among them, by exponent of 2:
// an immutable map, replaced whole under mu when a miss adds an entry, so
// a hit is one atomic load. Nothing is evicted: the exponents follow from
// the ring and batch sizes the process keys, never from peer bytes.
type rpowCache struct {
	m  atomic.Pointer[map[int][]big.Word]
	mu sync.Mutex
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
		asm:   k == 16 && hasMontMul1024,
		rpow:  &rpowCache{},
	}
	// n0 = -m^{-1} mod 2^W by Newton iteration: each step doubles the
	// number of correct low bits, and odd m guarantees invertibility.
	inv := uint(mo.words[0]) // 1 correct bit
	for i := 0; i < 6; i++ {
		inv *= 2 - uint(mo.words[0])*inv
	}
	mo.n0 = big.Word(-inv)
	if k == 16 && hasAMM52 {
		mo.lane = newLane52(mo)
	}
	// R mod m and R² mod m via one-time big.Int reductions.
	var buf [maxModulusWords]big.Word
	r := new(big.Int).Lsh(One, uint(k*bits.UintSize))
	mo.one = append([]big.Word(nil), mo.limbs(&buf, r)...)
	mo.r2 = append([]big.Word(nil), mo.limbs(&buf, new(big.Int).Mul(r, r))...)
	return mo, nil
}

// Words returns the modulus' limb count (the fixed width of its Elems).
func (mo *Modulus) Words() int { return mo.k }

// limbs widens v mod m (v itself when already in [0, m)) to the fixed
// width in a caller-owned scratch buffer, typically on the caller's
// stack, so a transient raw operand costs no allocation.
func (mo *Modulus) limbs(buf *[maxModulusWords]big.Word, v *big.Int) []big.Word {
	if v.Sign() < 0 || v.Cmp(mo.m) >= 0 {
		v = new(big.Int).Mod(v, mo.m)
	}
	e := buf[:mo.k]
	clear(e)
	copy(e, v.Bits())
	return e
}

// Load widens v into dst, the modulus' width of raw limbs, and reports
// whether v lies in (0, m); dst is unspecified when it does not.
func (mo *Modulus) Load(dst []big.Word, v *big.Int) bool {
	if v == nil || v.Sign() <= 0 || v.Cmp(mo.m) >= 0 {
		return false
	}
	dst = dst[:mo.k]
	clear(dst)
	copy(dst, v.Bits())
	return true
}

// LoadBytes decodes the big-endian integer b into dst, the modulus' width
// of raw limbs, and reports whether it lies in (0, m); dst is unspecified
// when it does not. Leading zero bytes are allowed, as in big.Int.SetBytes.
func (mo *Modulus) LoadBytes(dst []big.Word, b []byte) bool {
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	const wb = bits.UintSize / 8
	if len(b) > mo.k*wb {
		return false
	}
	dst = dst[:mo.k]
	w := 0
	for ; len(b) >= wb; w++ {
		if wb == 8 {
			dst[w] = big.Word(binary.BigEndian.Uint64(b[len(b)-8:]))
		} else {
			dst[w] = big.Word(binary.BigEndian.Uint32(b[len(b)-4:]))
		}
		b = b[:len(b)-wb]
	}
	if len(b) > 0 {
		var v big.Word
		for _, c := range b {
			v = v<<8 | big.Word(c)
		}
		dst[w] = v
		w++
	}
	clear(dst[w:])
	return mo.InRange(dst)
}

// InRange reports whether the raw limbs v, the modulus' width, hold a
// value in (0, m).
func (mo *Modulus) InRange(v []big.Word) bool {
	v = v[:mo.k]
	for _, w := range v {
		if w != 0 {
			return !geWords(v, mo.words)
		}
	}
	return false
}

// bigFromLimbs reads a fixed-width limb vector back into a big.Int.
func bigFromLimbs(e []big.Word) *big.Int {
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
	z := make([]big.Word, mo.k)
	mo.montMul(z, mo.limbs(&buf, v), mo.r2)
	return Elem{z}
}

// FromMont converts an Elem back to a canonical big.Int residue in [0, m):
// one Montgomery multiplication by 1.
func (mo *Modulus) FromMont(e Elem) *big.Int {
	var zbuf, obuf [maxModulusWords]big.Word
	z, oneLimb := zbuf[:mo.k], obuf[:mo.k]
	oneLimb[0] = 1
	mo.montMul(z, e.w, oneLimb)
	return bigFromLimbs(z)
}

// Mul returns x·y in the Montgomery domain.
func (mo *Modulus) Mul(x, y Elem) Elem {
	z := make([]big.Word, mo.k)
	mo.montMul(z, x.w, y.w)
	return Elem{z}
}

// MulInto computes z = x·y in the Montgomery domain; z may alias x or y.
func (mo *Modulus) MulInto(z, x, y Elem) { mo.montMul(z.w, x.w, y.w) }

// sqrInto computes z = x² in the Montgomery domain; z may alias x. It is
// a plain multiplication: at the protocols' widths the kernel-driven CIOS
// multiply beats a separated squaring, whose halved partial products do
// not pay for its extra doubling and reduction passes.
func (mo *Modulus) sqrInto(z, x []big.Word) { mo.montMul(z, x, x) }

// montMul computes z = x·y·R^{-1} mod m; z may alias x or y. A 16-word
// modulus on a CPU with ADX and BMI2 takes the assembly kernel
// montMul1024, every other case montMulGeneric. Both return the same
// limbs.
func (mo *Modulus) montMul(z, x, y []big.Word) {
	if mo.asm {
		montMul1024((*[16]big.Word)(z), (*[16]big.Word)(x), (*[16]big.Word)(y), (*[16]big.Word)(mo.words), mo.n0)
		return
	}
	mo.montMulGeneric(z, x, y)
}

// montMulGeneric computes z = x·y·R^{-1} mod m with the CIOS method over
// a sliding 2k-word accumulator (the math/big montgomery shape). z may
// alias x or y: the product accumulates in a stack scratch buffer and is
// copied out after the final conditional subtraction, which is masked.
func (mo *Modulus) montMulGeneric(z, x, y []big.Word) {
	k := mo.k
	n := mo.words
	var tbuf [2 * maxModulusWords]big.Word
	t := tbuf[:2*k]
	for i := range t {
		t[i] = 0
	}
	var c uint
	for i := 0; i < k; i++ {
		win := t[i : i+k]
		c2 := addMulWin(win, x, y[i])
		q := t[i] * mo.n0
		c3 := addMulWin(win, n, q)
		cx, k1 := bits.Add(c, uint(c2), 0)
		cy, k2 := bits.Add(cx, uint(c3), 0)
		t[i+k] = big.Word(cy)
		c = k1 + k2 // at most one of them carries
	}
	// The result t[k:2k] with overflow bit c is < 2m. Subtract m into
	// scratch, and keep that difference unless c is 0 and it borrowed
	// (t < m): a mask picks, so nothing branches on the product.
	var d [maxModulusWords]big.Word
	var b uint
	for i := range k {
		di, bb := bits.Sub(uint(t[k+i]), uint(n[i]), b)
		d[i], b = big.Word(di), bb
	}
	keepT := -big.Word(b &^ c)
	for i := range k {
		z[i] = d[i] ^ (d[i]^t[k+i])&keepT
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

// maxExpWindow is the widest window expWindow picks.
const maxExpWindow = 6

// expWindow picks the sliding-window width for a public exponent e > 0
// by counting: the w in 1…maxExpWindow whose walk over e takes the
// fewest products. A walk with w > 1 builds its table of odd powers in
// 2^(w-1) products (base² and one per entry past base); every walk takes
// one product per window after the first and one squaring per bit below
// the first window. The smaller w wins a tie. Widths are tried upwards
// and the search stops at the first whose table and fewest possible
// squarings already cost as much as the best walk, as every wider one
// does too: for e = 65537 it looks at w = 1 and 2 alone.
func expWindow(e *big.Int) int {
	ws, top := e.Bits(), e.BitLen()-1
	bit := func(i int) bool { return ws[i/wordBits]>>(i%wordBits)&1 != 0 }
	best, bestW := 2*top+1, 1 // more than any walk's cost
	for w := 1; w <= maxExpWindow; w++ {
		n := 0
		if w > 1 {
			n = 1 << (w - 1)
		}
		if n+top-(w-1) >= best {
			break
		}
		l := max(top-w+1, 0) // the first window's lowest set bit
		for !bit(l) {
			l++
		}
		n += l
		// A later window starting at bit i covers bits i-w+1…i: those
		// below its lowest set bit are zeros the walk squares past.
		for i := l - 1; i >= 0; {
			if bit(i) {
				n++
				i -= w
			} else {
				i--
			}
		}
		if n < best {
			best, bestW = n, w
		}
	}
	return bestW
}

// ExpElem computes base^e in the Montgomery domain for a non-negative
// exponent, with a left-to-right sliding window over precomputed odd
// powers, its width chosen by expWindow. e = 0 yields the Montgomery
// image of 1. The result and the odd-power table share one allocation.
// Where the radix-2^52 lane serves the modulus, an exponent of more than
// 8 bits runs on it with both lanes on the chain, as ExpFixed does: its
// two conversion calls cost more than they save on the shorter ones.
func (mo *Modulus) ExpElem(base Elem, e *big.Int) Elem {
	eb := e.BitLen()
	if e.Sign() < 0 {
		panic("mathx: ExpElem needs a non-negative exponent")
	}
	if eb == 0 {
		return Elem{slices.Clone(mo.one)}
	}
	k, w := mo.k, expWindow(e)
	if mo.lane != nil && eb > 8 {
		z := make([]big.Word, k)
		mo.expElemLane(z, base.w, e, w)
		return Elem{z}
	}
	// acc, then the odd powers base^1, base^3, ..., base^(2^w - 1): the
	// power for odd digit d sits at table[(d>>1)·k:][:k].
	flat := make([]big.Word, (1+1<<(w-1))*k)
	acc, table := flat[:k:k], flat[k:]
	copy(table, base.w)
	if len(table) > k {
		mo.sqrInto(acc, base.w) // base², scratch until the first window
		for i := k; i < len(table); i += k {
			mo.montMul(table[i:i+k], table[i-k:i], acc)
		}
	}
	pow := func(d uint) []big.Word { return table[int(d>>1)*k:][:k] }
	slidingWindow(e, w,
		func(d uint) { copy(acc, pow(d)) },
		func() { mo.sqrInto(acc, acc) },
		func(d uint) { mo.montMul(acc, acc, pow(d)) })
	return Elem{acc}
}

// expElemLane is ExpElem on amm52x20x2 with both lanes on one chain, for
// a window of w bits: the odd-power table holds single lane values on
// the stack, and the base enters and the result leaves through one
// conversion call each.
func (mo *Modulus) expElemLane(z, base []big.Word, e *big.Int, w int) {
	ln := mo.lane
	var tab [1 << (maxExpWindow - 1)][20]uint64
	var acc [20]uint64
	to52(&tab[0], base)
	ln.mul1(&tab[0], &tab[0], &ln.in)
	if w > 1 {
		ln.mul1(&acc, &tab[0], &tab[0]) // base², scratch until the first window
		for i := 1; i < 1<<(w-1); i++ {
			ln.mul1(&tab[i], &tab[i-1], &acc)
		}
	}
	slidingWindow(e, w,
		func(d uint) { acc = tab[d>>1] },
		func() { ln.mul1(&acc, &acc, &acc) },
		func(d uint) { ln.mul1(&acc, &acc, &tab[d>>1]) })
	ln.mul1(&acc, &acc, &ln.out)
	ln.store(z, &acc)
}

// slidingWindow walks e > 0 left to right in windows of at most w bits
// that end in a set bit: the top window's odd digit d seeds the
// accumulator (first(d)), every later bit squares it (sqr), and each
// later window multiplies in its digit's power after its squarings
// (mul(d)).
func slidingWindow(e *big.Int, w int, first func(d uint), sqr func(), mul func(d uint)) {
	started := false
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			if started {
				sqr()
			}
			i--
			continue
		}
		l := max(i-w+1, 0)
		for e.Bit(l) == 0 {
			l++
		}
		var d uint
		for j := i; j >= l; j-- {
			d = d<<1 | uint(e.Bit(j))
		}
		if started {
			for j := l; j <= i; j++ {
				sqr()
			}
			mul(d)
		} else {
			first(d)
			started = true
		}
		i = l - 1
	}
}

// The fixed window under ExpPair and ExpFixed, for secret exponents (a
// Scalar): the exponent is read in digits of fixedWindow bits over its
// order's bit length, each window is fixedWindow squarings and one
// product with the digit's table entry, and that entry is picked by a
// masked scan of the whole table. Nothing branches on, loops over or
// indexes by the exponent's bits or its length.
const (
	fixedWindow  = 4
	fixedEntries = 1 << fixedWindow
	wordBits     = bits.UintSize
)

// expPairMont is ExpPair on montMul: two fixed-window chains, one after
// the other, sharing one table allocation.
func (mo *Modulus) expPairMont(z1, z2, b1 []big.Word, x1 *scalarWords, b2 []big.Word, x2 *scalarWords, top int) {
	tab := make([]big.Word, (fixedEntries+1)*mo.k)
	mo.expFixedMont(z1, b1, x1, top, tab)
	mo.expFixedMont(z2, b2, x2, top, tab)
}

// expFixedMont computes z = base^x on the fixed window over montMul,
// reading x's digits top down from digit top. tab is scratch for
// fixedEntries+1 values: base^0 … base^15, then the selected entry. z
// must not alias base.
func (mo *Modulus) expFixedMont(z, base []big.Word, x *scalarWords, top int, tab []big.Word) {
	k := mo.k
	pows, t := tab[:fixedEntries*k], tab[fixedEntries*k:][:k]
	copy(pows, mo.one)
	copy(pows[k:], base)
	for i := 2; i < fixedEntries; i++ {
		mo.montMul(pows[i*k:(i+1)*k], pows[(i-1)*k:i*k], base)
	}
	selectEntry(z, pows, digit(x, top))
	for i := top - 1; i >= 0; i-- {
		for range fixedWindow {
			mo.montMul(z, z, z)
		}
		selectEntry(t, pows, digit(x, i))
		mo.montMul(z, z, t)
	}
}

// selectEntry sets z to entry d of tab, a packed table of len(z)-word
// entries. It reads every entry: only a mask depends on d.
func selectEntry(z, tab []big.Word, d expDigit) {
	k := len(z)
	clear(z)
	for i := 0; i < len(tab)/k; i++ {
		m := eqMask(uint(i), uint(d))
		for j := range z {
			z[j] |= tab[i*k+j] & m
		}
	}
}

// eqMask returns all ones when a == b and zero otherwise, with no branch.
func eqMask(a, b uint) big.Word {
	x := a ^ b
	return big.Word((x|-x)>>(wordBits-1)) - 1
}

// rPow returns R^e mod m as raw limbs of the modulus' width, for any
// integer e (R = 2^(W·k)). A chain of Montgomery products over raw
// residues leaves its true value times a known power of R; one more
// product with the right rPow cancels it, and Lemma 1's product is
// compared with one. Results are cached per exponent and shared:
// callers must not modify them. Each distinct ring size adds a few
// entries of k words.
func (mo *Modulus) rPow(e int) []big.Word { return mo.twoPow(e * mo.k * wordBits) }

// twoPow returns 2^e mod m as raw limbs of the modulus' width, for any
// integer e, from the cache rPow shares: R^e is 2^(W·k·e). The radix-2^52
// chains (amm52.go) take their corrections here too, since each of their
// products divides by R' = 2^1040 rather than by R.
func (mo *Modulus) twoPow(e int) []big.Word {
	cache := mo.rpow
	if m := cache.m.Load(); m != nil {
		if v, ok := (*m)[e]; ok {
			return v
		}
	}
	v := new(big.Int).Exp(Two, big.NewInt(int64(max(e, -e))), mo.m)
	if e < 0 {
		// 2 is a unit: m is odd.
		v.ModInverse(v, mo.m)
	}
	var buf [maxModulusWords]big.Word
	pow := append([]big.Word(nil), mo.limbs(&buf, v)...)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	next := map[int][]big.Word{e: pow}
	if old := cache.m.Load(); old != nil {
		if v, ok := (*old)[e]; ok { // added concurrently: keep the first
			return v
		}
		for k, v := range *old {
			next[k] = v
		}
	}
	cache.m.Store(&next)
	return pow
}

// Product returns Π values mod m, bit-identical to ProductMod: an empty
// slice yields 1 and values outside [0, m) are reduced first. The values
// are widened into one packed array and multiplied as ProductOf does.
func (mo *Modulus) Product(values []*big.Int) *big.Int {
	if len(values) == 0 {
		return big.NewInt(1)
	}
	k := mo.k
	flat := make([]big.Word, len(values)*k)
	var buf [maxModulusWords]big.Word
	for i, v := range values {
		copy(flat[i*k:], mo.limbs(&buf, v))
	}
	acc := flat[:k:k] // the chain reads slot 0 before it writes acc
	mo.packedProduct(acc, flat, 0)
	return new(big.Int).SetBits(acc)
}

// ProductOf returns Π v mod m over the raw residues packed in flat, each
// in [0, m) and k words wide (value i in flat[i·k:(i+1)·k]), like
// Product but with no per-value widening. An empty flat yields 1.
func (mo *Modulus) ProductOf(flat []big.Word) *big.Int {
	acc := make([]big.Word, mo.k)
	mo.packedProduct(acc, flat, 0)
	return new(big.Int).SetBits(acc) // acc is fresh: the result may own it
}

// ProductMontOf is ProductOf that leaves the product in the Montgomery
// domain, for a caller that goes on computing there: the correction
// product lands on the image directly, with no conversion out and back.
func (mo *Modulus) ProductMontOf(flat []big.Word) Elem {
	acc := make([]big.Word, mo.k)
	mo.packedProduct(acc, flat, 1)
	return Elem{acc}
}

// packedProduct sets acc to Π v·R^d mod m over the residues packed in
// flat, d being 0 for the raw product and 1 for its Montgomery image.
// acc may alias the first value. Each Montgomery product of two raw
// residues divides by R once, so the chain over count values leaves
// Π v·R^{-(count-1)}, and one final product with the cached R^{count+d}
// leaves Π v·R^d: count products, with no division and no per-value
// conversion. On the radix-2^52 lane (productLane) two such chains run
// side by side.
func (mo *Modulus) packedProduct(acc, flat []big.Word, d int) {
	k, count := mo.k, len(flat)/mo.k
	switch {
	case count == 0:
		copy(acc, mo.rPow(d))
	case mo.lane != nil:
		mo.productLane(acc, flat, count, d)
	default:
		copy(acc, flat[:k])
		for i := k; i < count*k; i += k {
			mo.montMul(acc, acc, flat[i:i+k])
		}
		mo.montMul(acc, acc, mo.rPow(count+d))
	}
}

// PrefixProducts runs the one chain under Lemma 1 and equation (3) over
// the ring of n raw residues packed in xs (X_j in xs[j·k:(j+1)·k], each
// in [0, m)), starting at slot i. With S_t = X_i···X_{i+t} (indices mod
// n) it returns the Horner product S_0·S_1···S_{n-2} as a Montgomery
// image, the image of 1 when n = 1, and whether S_{n-1} = Π X_j ≡ 1 mod
// m (Lemma 1).
//
// On montMul that is 2n-2 products for n > 1. In 2n-3 of them the prefix
// steps to S_j while the Horner product takes S_{j-1}; they leave
// S_{n-1}·R^{-(n-1)}, which Lemma 1 compares with the cached R^{-(n-1)},
// and Π S_t·R^{-e}, e = (n-2)(n+1)/2, which the last product, with the
// cached R^{e+2}, turns into its image. On the radix-2^52 lane both
// steps of each j are one call, and so are both corrections: n calls in
// all (prefixLane). Both give the same limbs.
func (mo *Modulus) PrefixProducts(xs []big.Word, i int) (Elem, bool) {
	k := mo.k
	n := len(xs) / k
	x := func(j int) []big.Word { j %= n; return xs[j*k : (j+1)*k] }
	var pbuf [maxModulusWords]big.Word
	prefix, acc := pbuf[:k], make([]big.Word, k)
	switch {
	case n == 1:
		copy(prefix, x(i))
		copy(acc, mo.one)
	case mo.lane != nil:
		mo.prefixLane(prefix, acc, xs, i, n)
	default:
		copy(prefix, x(i))
		copy(acc, prefix)
		for j := 1; j <= n-2; j++ {
			mo.montMul(prefix, prefix, x(i+j))
			mo.montMul(acc, acc, prefix)
		}
		mo.montMul(prefix, prefix, x(i+n-1))
		mo.montMul(acc, acc, mo.rPow((n-2)*(n+1)/2+2))
	}
	return Elem{acc}, slices.Equal(prefix, mo.rPow(1-n))
}
