package mathx

import "math/big"

// This file runs the 1024-bit product chains on amm52x20x2
// (amm52_amd64.s), which computes two independent products side by side
// in radix 2^52 on amd64 CPUs with AVX-512 IFMA. On a 2-vCPU Xeon of the
// Sapphire Rapids class one call took 217 ns at the minimum of 20 runs
// (240 ns median), against 242 ns (285 ns) for the single product of
// one montMul1024 (BenchmarkAMM52x20x2, BenchmarkMontMul; see
// docs/PERFORMANCE.md). A Modulus the kernel serves holds every value in
// its radix, 20 limbs of 52 bits with R = 2^1040 (mont.go), so the
// chains below read Elems, Packed slots and table entries as they are
// and write results back the same way; only a value entering from a
// big.Int (to52) or from bytes (Packed.LoadBytes), or leaving as a
// big.Int (from52), changes radix. Each chain is cut into two halves,
// one per lane:
//
//   - ExpPair: two secret powers on the fixed window (mont.go), sharing
//     one schedule whatever their exponents, each digit's table entries
//     from sel52x2, a masked scan of the whole table; ExpFixed runs one
//     chain with both lanes on it;
//   - packedProduct (productLane): the odd and even factors;
//   - PrefixProducts (prefixLane): the prefix and the product of the
//     prefixes of Lemma 1 and equation (3);
//   - FixedBaseTable.ExpMul (combLane, fixedbase.go): the comb's two
//     blocks.
//
// Every other product (ExpElem, ToMont, FromMont, Mul, a table's build)
// is one call through mul with the second lane repeating the first. A
// product's operands and result are below 2m; reduce brings a result
// into [0, m) where it leaves a chain. Every other width, CPU and build
// runs the montMul code each function names. Both give the same values.

const mask52 = 1<<52 - 1

// pair52 holds one radix-2^52 value per chain.
type pair52 [2][20]big.Word

// to52 sets the 20 limbs of 52 bits dst to the little-endian 64-bit
// words src, a value below 2^1040 in at most 16 words. Each word
// completes one limb and, every fourth or fifth word, a second.
func to52(dst, src []big.Word) {
	var acc uint64 // the next limb's low n bits
	var n uint
	j := 0
	for _, w := range src {
		v := uint64(w)
		dst[j], j = big.Word((acc|v<<n)&mask52), j+1
		acc, n = v>>(52-n), n+12
		if n >= 52 {
			dst[j], j = big.Word(acc&mask52), j+1
			acc, n = acc>>52, n-52
		}
	}
	for ; j < 20; j++ {
		dst[j], acc = big.Word(acc&mask52), 0
	}
}

// from52 sets the 16 little-endian 64-bit words dst to the 20 limbs of
// 52 bits src, a value below 2^1024.
func from52(dst, src []big.Word) {
	var acc uint64 // the next word's low n bits
	var n uint
	w := 0
	for _, v := range src[:20] {
		acc |= uint64(v) << n
		if n += 52; n >= 64 {
			dst[w], w = big.Word(acc), w+1
			n -= 64
			acc = uint64(v) >> (52 - n)
		}
	}
}

// mul2 computes z1 = x1·y1 and z2 = x2·y2 in one call. The kernel reads
// every operand before it stores, so each z may alias any x or y, also
// the other lane's; z1 and z2 must differ.
func (mo *Modulus) mul2(z1, x1, y1, z2, x2, y2 *[20]big.Word) {
	amm52x20x2(z1, x1, y1, z2, x2, y2, (*[20]big.Word)(mo.words), uint64(mo.n0))
}

// mulPair computes z = x·y for both chains; z may alias x or y.
func (mo *Modulus) mulPair(z, x, y *pair52) { mo.mul2(&z[0], &x[0], &y[0], &z[1], &x[1], &y[1]) }

// reduce sets z to x mod m for an x below 2m, the bound of the lane's
// products; z may alias x. The subtraction is kept or dropped by a mask,
// not a branch. montMul's results are already in [0, m): elsewhere it
// copies.
func (mo *Modulus) reduce(z, x []big.Word) {
	if !mo.lane {
		copy(z, x)
		return
	}
	var d [20]big.Word
	var borrow uint64
	for j := range d {
		v := uint64(x[j]) - uint64(mo.words[j]) - borrow
		borrow = v >> 63
		d[j] = big.Word(v & mask52)
	}
	keep := big.Word(-borrow) // all ones where x < m
	for j := range d {
		z[j] = d[j]&^keep | x[j]&keep
	}
}

// ExpPair returns b1^e1 and b2^e2 in the Montgomery domain. Both chains
// walk the fixed window over the larger of the two exponents' order bit
// lengths, so which products run and which table entries are read
// depends on those public bounds alone, not on either exponent. On a
// 16-word modulus and a CPU with AVX-512 IFMA every product of both
// chains is one amm52x20x2 call; otherwise each chain runs on montMul.
// The results are the same values as ExpElem's.
func (mo *Modulus) ExpPair(b1 Elem, e1 Scalar, b2 Elem, e2 Scalar) (Elem, Elem) {
	out := new([2]elemBox)
	z1, z2 := mo.elemIn(&out[0]), mo.elemIn(&out[1])
	top := fixedTop(max(e1.q.BitLen(), e2.q.BitLen()))
	if mo.lane {
		mo.expPairLane(z1.limbs(), z2.limbs(), b1.limbs(), e1.r.w, b2.limbs(), e2.r.w, top)
	} else {
		mo.expPairMont(z1.limbs(), z2.limbs(), b1.limbs(), e1.r.w, b2.limbs(), e2.r.w, top)
	}
	return z1, z2
}

// ExpFixed returns base^e in the Montgomery domain on ExpPair's fixed
// window. Where ExpPair runs on the radix-2^52 kernel, ExpFixed runs it
// with both lanes on the same chain: one lane call costs less than one
// montMul chain.
func (mo *Modulus) ExpFixed(base Elem, e Scalar) Elem {
	if mo.lane {
		z, _ := mo.ExpPair(base, e, base, e)
		return z
	}
	z := mo.newElem()
	var tbuf [(fixedEntries + 1) * inlineLimbs]big.Word
	mo.expFixedMont(z.limbs(), base.limbs(), e.r.w, fixedTop(e.q.BitLen()), scratch(tbuf[:], (fixedEntries+1)*mo.k))
	return z
}

// expPairLane is ExpPair on amm52x20x2, reading x1's and x2's digits top
// down from digit top. The table of each base's powers 0 to 15, two
// lanes per entry, lives on the stack.
func (mo *Modulus) expPairLane(z1, z2, b1 []big.Word, x1 *scalarWords, b2 []big.Word, x2 *scalarWords, top int) {
	var tab [fixedEntries]pair52
	var acc, t pair52
	one := (*[20]big.Word)(mo.one)
	tab[0] = pair52{*one, *one}
	tab[1] = pair52{*(*[20]big.Word)(b1), *(*[20]big.Word)(b2)}
	for i := 2; i < fixedEntries; i++ {
		mo.mulPair(&tab[i], &tab[i-1], &tab[1])
	}
	sel52x2(&acc, &tab[0], fixedEntries, uint64(digit(x1, top)), uint64(digit(x2, top)))
	for i := top - 1; i >= 0; i-- {
		for range fixedWindow {
			mo.mulPair(&acc, &acc, &acc)
		}
		sel52x2(&t, &tab[0], fixedEntries, uint64(digit(x1, i)), uint64(digit(x2, i)))
		mo.mulPair(&acc, &acc, &t)
	}
	mo.reduce(z1, acc[0][:])
	mo.reduce(z2, acc[1][:])
}

// productLane is packedProduct on amm52x20x2, for count >= 1 raw
// residues. The correction c = R^(count+d) heads the sequence c, v_0, …,
// v_{count-1}, whose even slots run in lane 0 and odd slots in lane 1; a
// lane with no factor left takes the image of 1. One last call joins the
// two accumulators. Each of the count products that takes a factor
// divides by R, so the result is Π v·R^d. That is ceil((count+1)/2)
// calls for count montMul products.
func (mo *Modulus) productLane(z []big.Word, p Packed, count, d int) {
	var acc pair52
	acc[0] = *(*[20]big.Word)(mo.rPow(count + d))
	acc[1] = *(*[20]big.Word)(p.slot(0))
	for i := 1; i < count; i += 2 {
		y := (*[20]big.Word)(mo.one)
		if i+1 < count {
			y = (*[20]big.Word)(p.slot(i + 1))
		}
		mo.mul2(&acc[0], &acc[0], (*[20]big.Word)(p.slot(i)), &acc[1], &acc[1], y)
	}
	mo.mul(acc[0][:], acc[0][:], acc[1][:])
	mo.reduce(z, acc[0][:])
}

// prefixLane is PrefixProducts on amm52x20x2 for n >= 2: it sets prefix
// to S_{n-1}·R^{-(n-1)} and acc to the Horner product's image Π S_t·R,
// both in [0, m). Call j steps both halves of the chain: lane 0 takes
// the prefix from S_{j-1} to S_j while lane 1 multiplies the accumulator
// by S_{j-1}, read before the call stores S_j. The accumulator starts at
// the image of 1, so the n-1 calls leave S_{n-1}·R^{-(n-1)}, as Lemma 1
// compares it, and Π S_t·R^{-e}, e = (n-2)(n+1)/2. One more call, with
// the cached R^{e+2}, turns the second into its image.
func (mo *Modulus) prefixLane(prefix, acc []big.Word, x func(int) []big.Word, i, n int) {
	p, a := (*[20]big.Word)(prefix), (*[20]big.Word)(acc)
	copy(p[:], x(i))
	copy(a[:], mo.one)
	for j := 1; j < n; j++ {
		mo.mul2(p, p, (*[20]big.Word)(x(i+j)), a, a, p)
	}
	mo.mul(acc, acc, mo.rPow((n-2)*(n+1)/2+2))
	mo.reduce(prefix, prefix)
	mo.reduce(acc, acc)
}
