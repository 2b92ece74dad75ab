package mathx

import (
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
// one modulus exactly once, and picks there the one representation every
// value of it takes. Where amm52x20x2 runs (a 16-word modulus on an
// amd64 CPU with AVX-512 IFMA, amm52.go) that is 20 limbs of 52 bits in
// the domain of R = 2^1040; everywhere else it is the modulus' k machine
// words in the domain of R = 2^(W·k). Elems, Packed slots (packed.go) and
// fixed-base table entries (fixedbase.go) all hold it, so no chain
// converts between radices: a value enters through ToMont, Load or
// LoadBytes and leaves through FromMont or a method that returns a
// big.Int, and no other package can read a limb. Every operation is
// mathematically transparent: results are bit-identical to the math/big
// computation, so transcripts, keys and operation meters are unaffected
// by which engine ran.
//
// Every product goes through mul: the single-lane kernel call where the
// lane runs, montMul elsewhere. montMul is CIOS (coarsely integrated
// operand scanning): per limb of y, one pass adds x·y_i into a sliding
// accumulator window and a second adds the reduction multiple of m. At
// 16 words on amd64 CPUs with ADX and BMI2, one assembly call runs the
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
// bound alone. Where the lane runs, ExpPair, the packed products and the
// prefix chain of equation (3) put two chains side by side in one
// kernel call per product (amm52.go).

// maxModulusWords bounds the fixed scratch buffers of the CIOS loops
// (64 words = 4096 bits on 64-bit platforms), far above the 1024/2048-bit
// moduli of the protocols.
const maxModulusWords = 64

// Elem is one residue in the Montgomery domain of a Modulus: v·R mod m in
// [0, m), R being the modulus' own, as a fixed-width little-endian limb
// vector in its representation. Elems are only meaningful with the
// Modulus that created them (or one of the same value and
// representation). An Elem is opaque, as the Go toolchain's
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
// odd m in one representation: k limbs of limbBits bits with R =
// 2^(k·limbBits), m's limbs, n0 = -m^{-1} mod 2^limbBits, and R and R²
// mod m. Construction costs a few big.Int reductions; every subsequent
// operation is division-free. A Modulus is immutable after construction,
// apart from rPow's cache, and safe for concurrent use.
type Modulus struct {
	m        *big.Int
	words    []big.Word // m's limbs, length k
	k        int        // limbs per value
	limbBits uint       // bits per limb: 52 on the lane, else the word size
	n0       big.Word   // -m^{-1} mod 2^limbBits
	r2       []big.Word // R² mod m  (ToMont multiplier)
	one      []big.Word // R mod m   (Montgomery image of 1)
	asm      bool       // montMul runs the montMul1024 kernel
	lane     bool       // values are 20 limbs of 52 bits and mul runs amm52x20x2

	rpow *rpowCache
}

// rpowCache holds rPow's results by exponent: an immutable map, replaced
// whole under mu when a miss adds an entry, so a hit is one atomic load.
// Nothing is evicted: the exponents follow from the ring and batch sizes
// the process keys, never from peer bytes.
type rpowCache struct {
	m  atomic.Pointer[map[int][]big.Word]
	mu sync.Mutex
}

// NewModulus precomputes a Montgomery context for an odd modulus > 1. A
// 16-word modulus takes the radix-2^52 representation where the CPU runs
// amm52x20x2.
func NewModulus(m *big.Int) (*Modulus, error) { return newModulus(m, hasAMM52) }

// newModulus is NewModulus with the radix-2^52 lane allowed or not.
func newModulus(m *big.Int, lane bool) (*Modulus, error) {
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
		m:        new(big.Int).Set(m),
		words:    append([]big.Word(nil), limbs...),
		k:        k,
		limbBits: wordBits,
		asm:      k == 16 && hasMontMul1024,
		lane:     k == 16 && lane,
		rpow:     &rpowCache{},
	}
	// n0 = -m^{-1} mod 2^W by Newton iteration: each step doubles the
	// number of correct low bits, and odd m guarantees invertibility.
	inv := uint(limbs[0]) // 1 correct bit
	for i := 0; i < 6; i++ {
		inv *= 2 - uint(limbs[0])*inv
	}
	mo.n0 = big.Word(-inv)
	if mo.lane {
		mo.k, mo.limbBits, mo.words = 20, 52, make([]big.Word, 20)
		to52(mo.words, limbs)
		mo.n0 = big.Word(uint64(mo.n0) & mask52)
	}
	mo.one, mo.r2 = mo.rPow(1), mo.rPow(2)
	return mo, nil
}

// fromWords sets the value limbs dst to ws, little-endian machine words
// of a value below m (ws may be shorter than m's).
func (mo *Modulus) fromWords(dst, ws []big.Word) {
	if mo.lane {
		to52(dst, ws)
		return
	}
	clear(dst)
	copy(dst, ws)
}

// bigOf reads the canonical value limbs x into a new big.Int.
func (mo *Modulus) bigOf(x []big.Word) *big.Int {
	ws := make([]big.Word, len(mo.m.Bits()))
	if mo.lane {
		from52(ws, x)
	} else {
		copy(ws, x)
	}
	return new(big.Int).SetBits(ws)
}

// limbs sets buf's first k limbs to v mod m (v itself when already in
// [0, m)) in mo's representation and returns them, so a transient raw
// operand costs no allocation.
func (mo *Modulus) limbs(buf *[maxModulusWords]big.Word, v *big.Int) []big.Word {
	if v.Sign() < 0 || v.Cmp(mo.m) >= 0 {
		v = new(big.Int).Mod(v, mo.m)
	}
	e := buf[:mo.k]
	mo.fromWords(e, v.Bits())
	return e
}

// ToMont converts v (any integer; reduced mod m first unless already in
// [0, m)) into the Montgomery domain: one Montgomery multiplication by R².
func (mo *Modulus) ToMont(v *big.Int) Elem {
	var buf [maxModulusWords]big.Word
	return mo.toMont(mo.limbs(&buf, v))
}

// toMont returns the Montgomery image of the raw limbs x.
func (mo *Modulus) toMont(x []big.Word) Elem {
	z := make([]big.Word, mo.k)
	mo.mul(z, x, mo.r2)
	mo.reduce(z, z)
	return Elem{z}
}

// FromMont converts an Elem back to a canonical big.Int residue in [0, m):
// one Montgomery multiplication by 1.
func (mo *Modulus) FromMont(e Elem) *big.Int {
	var zbuf, obuf [maxModulusWords]big.Word
	z, oneLimb := zbuf[:mo.k], obuf[:mo.k]
	oneLimb[0] = 1
	mo.mul(z, e.w, oneLimb)
	mo.reduce(z, z)
	return mo.bigOf(z)
}

// Mul returns x·y in the Montgomery domain.
func (mo *Modulus) Mul(x, y Elem) Elem {
	z := make([]big.Word, mo.k)
	mo.MulInto(Elem{z}, x, y)
	return Elem{z}
}

// MulInto computes z = x·y in the Montgomery domain; z may alias x or y.
func (mo *Modulus) MulInto(z, x, y Elem) {
	mo.mul(z.w, x.w, y.w)
	mo.reduce(z.w, z.w)
}

// mul computes z = x·y·R^{-1} mod m, the one product of every chain; z
// may alias x or y. On the radix-2^52 lane it is one amm52x20x2 call with
// the product repeated in the second lane, and operands below 2m give a
// result below 2m (reduce brings it into [0, m)). Elsewhere it is
// montMul, whose results are canonical: at 16 words on a CPU with ADX
// and BMI2 the assembly kernel montMul1024, in every other case
// montMulGeneric, both with the same limbs.
func (mo *Modulus) mul(z, x, y []big.Word) {
	switch {
	case mo.lane:
		var t [20]big.Word
		x20, y20 := (*[20]big.Word)(x), (*[20]big.Word)(y)
		amm52x20x2((*[20]big.Word)(z), x20, y20, &t, x20, y20, (*[20]big.Word)(mo.words), uint64(mo.n0))
	case mo.asm:
		montMul1024((*[16]big.Word)(z), (*[16]big.Word)(x), (*[16]big.Word)(y), (*[16]big.Word)(mo.words), mo.n0)
	default:
		mo.montMulGeneric(z, x, y)
	}
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
// Where the radix-2^52 lane serves the modulus, every product is one
// lane call, and the result is reduced into [0, m) once at the end.
func (mo *Modulus) ExpElem(base Elem, e *big.Int) Elem {
	if e.Sign() < 0 {
		panic("mathx: ExpElem needs a non-negative exponent")
	}
	if e.Sign() == 0 {
		return Elem{slices.Clone(mo.one)}
	}
	k, w := mo.k, expWindow(e)
	// acc, then the odd powers base^1, base^3, ..., base^(2^w - 1): the
	// power for odd digit d sits at table[(d>>1)·k:][:k].
	flat := make([]big.Word, (1+1<<(w-1))*k)
	acc, table := flat[:k:k], flat[k:]
	copy(table, base.w)
	if len(table) > k {
		mo.mul(acc, base.w, base.w) // base², scratch until the first window
		for i := k; i < len(table); i += k {
			mo.mul(table[i:i+k], table[i-k:i], acc)
		}
	}
	pow := func(d uint) []big.Word { return table[int(d>>1)*k:][:k] }
	slidingWindow(e, w,
		func(d uint) { copy(acc, pow(d)) },
		func() { mo.mul(acc, acc, acc) },
		func(d uint) { mo.mul(acc, acc, pow(d)) })
	mo.reduce(acc, acc)
	return Elem{acc}
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
		mo.mul(pows[i*k:(i+1)*k], pows[(i-1)*k:i*k], base)
	}
	selectEntry(z, pows, digit(x, top))
	for i := top - 1; i >= 0; i-- {
		for range fixedWindow {
			mo.mul(z, z, z)
		}
		selectEntry(t, pows, digit(x, i))
		mo.mul(z, z, t)
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

// rPow returns R^e mod m as limbs of mo's values, for any integer e and
// the modulus' own R. A chain of Montgomery products over raw residues
// leaves its true value times a known power of R; one more product with
// the right rPow cancels it, and Lemma 1's product is compared with one.
// Results are cached per exponent and shared: callers must not modify
// them. Each distinct ring size adds a few entries of k limbs.
func (mo *Modulus) rPow(e int) []big.Word {
	cache := mo.rpow
	if m := cache.m.Load(); m != nil {
		if v, ok := (*m)[e]; ok {
			return v
		}
	}
	v := new(big.Int).Exp(Two, big.NewInt(int64(max(e, -e)*mo.k)*int64(mo.limbBits)), mo.m)
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
