package mathx

import "math/big"

// This file runs two secret powers side by side on the fixed window
// (mont.go). Both chains then share one schedule, whatever their
// exponents: the same squarings and one product per digit. At the
// protocols' 1024 bits on amd64 CPUs with AVX-512 IFMA, each squaring and
// multiply of both chains is one call to amm52x20x2 (amm52_amd64.s),
// which runs the two products side by side in radix 2^52, and each
// digit's table entries come from sel52x2, a masked scan of the whole
// table in the same file. Every other case runs each chain on montMul
// with a Go masked scan (expFixedMont). Both give the same limbs.

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
	one     [20]uint64 // 2^1040 mod m, the kernel's image of 1
}

func newLane52(mo *Modulus) *lane52 {
	ln := &lane52{k0: uint64(mo.n0) & mask52}
	var buf [maxModulusWords]big.Word
	to52(&ln.m, mo.words)
	to52(&ln.in, mo.limbs(&buf, new(big.Int).Lsh(One, 1056)))
	to52(&ln.out, mo.limbs(&buf, new(big.Int).Lsh(One, 1024)))
	to52(&ln.one, mo.limbs(&buf, new(big.Int).Lsh(One, 1040)))
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
// 16-word z. The subtraction is kept or dropped by a mask, not a branch.
func (ln *lane52) store(z Elem, x *[20]uint64) {
	var d [20]uint64
	var borrow uint64
	for j := range x {
		v := x[j] - ln.m[j] - borrow
		borrow = v >> 63
		d[j] = v & mask52
	}
	keep := -borrow // all ones where x < m
	for j := range d {
		d[j] = d[j]&^keep | x[j]&keep
	}
	from52(z, &d)
}

// ExpPair returns b1^e1 and b2^e2 in the Montgomery domain. Both chains
// walk the fixed window over the larger of the two exponents' order bit
// lengths, so which products run and which table entries are read
// depends on those public bounds alone, not on either exponent. On a
// 16-word modulus and a CPU with AVX-512 IFMA every product of both
// chains is one amm52x20x2 call; otherwise each chain runs on montMul.
// The results are the same limbs as ExpElem's.
func (mo *Modulus) ExpPair(b1 Elem, e1 Scalar, b2 Elem, e2 Scalar) (Elem, Elem) {
	out := make(Elem, 2*mo.k)
	z1, z2 := out[:mo.k:mo.k], out[mo.k:]
	top := fixedTop(max(e1.q.BitLen(), e2.q.BitLen()))
	if mo.lane != nil {
		mo.expPairLane(z1, z2, b1, &e1.w, b2, &e2.w, top)
	} else {
		mo.expPairMont(z1, z2, b1, &e1.w, b2, &e2.w, top)
	}
	return z1, z2
}

// ExpFixed returns base^e in the Montgomery domain on ExpPair's fixed
// window. Where ExpPair runs on the radix-2^52 kernel, ExpFixed runs it
// with both lanes on the same chain: one lane call costs less than one
// montMul chain.
func (mo *Modulus) ExpFixed(base Elem, e Scalar) Elem {
	if mo.lane != nil {
		z, _ := mo.ExpPair(base, e, base, e)
		return z
	}
	z := make(Elem, mo.k)
	mo.expFixedMont(z, base, &e.w, fixedTop(e.q.BitLen()), make([]big.Word, (fixedEntries+1)*mo.k))
	return z
}

// expPairLane is ExpPair on amm52x20x2, reading x1's and x2's digits top
// down from digit top. The table of each base's powers 0 to 15, two
// lanes per entry, lives on the stack.
func (mo *Modulus) expPairLane(z1, z2, b1 Elem, x1 *scalarWords, b2 Elem, x2 *scalarWords, top int) {
	ln := mo.lane
	var tab [fixedEntries]pair52
	var acc, t pair52
	tab[0] = pair52{ln.one, ln.one}
	to52(&tab[1][0], b1)
	to52(&tab[1][1], b2)
	ln.mulBy(&tab[1], &ln.in)
	for i := 2; i < fixedEntries; i++ {
		ln.mul(&tab[i], &tab[i-1], &tab[1])
	}
	sel52x2(&acc, &tab[0], fixedEntries, uint64(digit(x1, top)), uint64(digit(x2, top)))
	for i := top - 1; i >= 0; i-- {
		for range fixedWindow {
			ln.mul(&acc, &acc, &acc)
		}
		sel52x2(&t, &tab[0], fixedEntries, uint64(digit(x1, i)), uint64(digit(x2, i)))
		ln.mul(&acc, &acc, &t)
	}
	ln.mulBy(&acc, &ln.out)
	ln.store(z1, &acc[0])
	ln.store(z2, &acc[1])
}
