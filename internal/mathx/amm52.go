package mathx

import "math/big"

// This file runs two powers of one exponent in lockstep. Round 2 raises
// both ring neighbours to the member's own secret, so the two product
// chains share the exponent's window walk and the modulus. At the
// protocols' 1024 bits on amd64 CPUs with AVX-512 IFMA, each squaring
// and multiply of both chains is one call to amm52x20x2
// (amm52_amd64.s), which runs the two products side by side in radix
// 2^52. Every other case runs the two ExpElem calls.

const mask52 = 1<<52 - 1

// pair52 holds one radix-2^52 value per chain: 20 limbs of 52 bits
// each, below 2m.
type pair52 [2][20]uint64

// lane52 is a 16-word modulus in the kernel's radix: m's limbs, k0 =
// -m^{-1} mod 2^52, and the two conversion factors. With R = 2^1024 the
// radix of Elems and R' = 2^1040 the kernel's, an Elem x·R enters as
// x·R·2^1056/R' = x·R' and a result y·R' leaves as y·R'·2^1024/R' = y·R.
type lane52 struct {
	m       [20]uint64
	k0      uint64
	in, out [20]uint64 // 2^1056 mod m and 2^1024 mod m
}

func newLane52(mo *Modulus) *lane52 {
	ln := &lane52{k0: uint64(mo.n0) & mask52}
	var buf [maxModulusWords]big.Word
	to52(&ln.m, mo.words)
	to52(&ln.in, mo.limbs(&buf, new(big.Int).Lsh(One, 1056)))
	to52(&ln.out, mo.limbs(&buf, new(big.Int).Lsh(One, 1024)))
	return ln
}

// to52 splits 16 little-endian 64-bit words into 20 limbs of 52 bits.
func to52(dst *[20]uint64, src []big.Word) {
	for j := range dst {
		w, s := 52*j/64, uint(52*j%64)
		v := uint64(src[w]) >> s
		if s > 12 && w+1 < len(src) {
			v |= uint64(src[w+1]) << (64 - s)
		}
		dst[j] = v & mask52
	}
}

// from52 packs 20 limbs of 52 bits holding a value below 2^1024 into 16
// little-endian 64-bit words.
func from52(dst []big.Word, src *[20]uint64) {
	clear(dst)
	for j, v := range src {
		w, s := 52*j/64, uint(52*j%64)
		dst[w] |= big.Word(v << s)
		if s > 12 && w+1 < len(dst) {
			dst[w+1] |= big.Word(v >> (64 - s))
		}
	}
}

// mul computes z = x·y for both chains; z may alias x or y.
func (ln *lane52) mul(z, x, y *pair52) {
	amm52x20x2(&z[0], &x[0], &y[0], &z[1], &x[1], &y[1], &ln.m, ln.k0)
}

// mulBy computes z = z·c for both chains, c a single factor.
func (ln *lane52) mulBy(z *pair52, c *[20]uint64) {
	amm52x20x2(&z[0], &z[0], c, &z[1], &z[1], c, &ln.m, ln.k0)
}

// store reduces x, a value below 2m, into [0, m) and packs it into the
// 16-word z.
func (ln *lane52) store(z Elem, x *[20]uint64) {
	var d [20]uint64
	var borrow uint64
	for j := range x {
		v := x[j] - ln.m[j] - borrow
		borrow = v >> 63
		d[j] = v & mask52
	}
	if borrow != 0 {
		d = *x
	}
	from52(z, &d)
}

// ExpPair returns b1^e and b2^e in the Montgomery domain: the same limbs
// as ExpElem(b1, e) and ExpElem(b2, e). On a 16-word modulus and a CPU
// with AVX-512 IFMA it walks the sliding window once and runs every
// product of both chains as one kernel call; otherwise it is the two
// ExpElem calls.
func (mo *Modulus) ExpPair(b1, b2 Elem, e *big.Int) (Elem, Elem) {
	if mo.lane == nil {
		return mo.expPairSerial(b1, b2, e)
	}
	return mo.expPairLane(b1, b2, e)
}

// expPairSerial is ExpPair as two ExpElem calls.
func (mo *Modulus) expPairSerial(b1, b2 Elem, e *big.Int) (Elem, Elem) {
	return mo.ExpElem(b1, e), mo.ExpElem(b2, e)
}

// expPairLane is ExpPair on amm52x20x2. Both results share one
// allocation, the accumulator and odd-power table another.
func (mo *Modulus) expPairLane(b1, b2 Elem, e *big.Int) (Elem, Elem) {
	if e.Sign() < 0 {
		panic("mathx: ExpPair needs a non-negative exponent")
	}
	out := make(Elem, 2*mo.k)
	z1, z2 := out[:mo.k:mo.k], out[mo.k:]
	eb := e.BitLen()
	if eb == 0 {
		copy(z1, mo.one)
		copy(z2, mo.one)
		return z1, z2
	}
	ln := mo.lane
	w := expWindow(eb)
	// The accumulator, then the odd powers: digit d's at tab[1+d>>1].
	tab := make([]pair52, 1+1<<(w-1))
	acc := &tab[0]
	to52(&tab[1][0], b1)
	to52(&tab[1][1], b2)
	ln.mulBy(&tab[1], &ln.in)
	if len(tab) > 2 {
		ln.mul(acc, &tab[1], &tab[1]) // base², scratch until the first window
		for i := 2; i < len(tab); i++ {
			ln.mul(&tab[i], &tab[i-1], acc)
		}
	}
	slidingWindow(e, w,
		func(d uint) { *acc = tab[1+d>>1] },
		func() { ln.mul(acc, acc, acc) },
		func(d uint) { ln.mul(acc, acc, &tab[1+d>>1]) })
	ln.mulBy(acc, &ln.out)
	ln.store(z1, &acc[0])
	ln.store(z2, &acc[1])
	return z1, z2
}
