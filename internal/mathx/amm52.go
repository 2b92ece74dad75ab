package mathx

import "math/big"

// This file runs the 1024-bit product chains on amm52x20x2
// (amm52_amd64.s), which computes two independent products side by side
// in radix 2^52 on amd64 CPUs with AVX-512 IFMA. On a 2-vCPU Xeon of the
// Sapphire Rapids class one call took 217 ns at the minimum of 20 runs
// (240 ns median), against 242 ns (285 ns) for the single product of
// one montMul1024 (BenchmarkAMM52x20x2, BenchmarkMontMul; see
// docs/PERFORMANCE.md). Each chain is cut into two halves, one per lane:
//
//   - ExpPair: two secret powers on the fixed window (mont.go), sharing
//     one schedule whatever their exponents, each digit's table entries
//     from sel52x2, a masked scan of the whole table; ExpFixed and
//     ExpElem above 8 bits run one chain with both lanes on it;
//   - packedProduct (productLane): the odd and even factors;
//   - PrefixProducts (prefixLane): the prefix and the product of the
//     prefixes of Lemma 1 and equation (3);
//   - FixedBaseTable.ExpMul (combLane, fixedbase.go): the comb's two
//     blocks.
//
// The lane divides each product by R' = 2^1040 where montMul divides by
// R = 2^1024. A power enters and leaves through the conversion factors
// below; a raw product chain instead ends with one product by a cached
// power of two (twoPow) that cancels what its R' divisions left. Every
// other width, CPU and build runs the montMul code each function names.
// Both give the same limbs.

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

// mul2 computes z1 = x1·y1 and z2 = x2·y2 in one call. The kernel reads
// every operand before it stores, so each z may alias any x or y, also
// the other lane's; z1 and z2 must differ.
func (ln *lane52) mul2(z1, x1, y1, z2, x2, y2 *[20]uint64) {
	amm52x20x2(z1, x1, y1, z2, x2, y2, &ln.m, ln.k0)
}

// mul1 computes z = x·y in lane 0 for a chain with no second half: lane 1
// repeats the product into scratch.
func (ln *lane52) mul1(z, x, y *[20]uint64) {
	var t [20]uint64
	amm52x20x2(z, x, y, &t, x, y, &ln.m, ln.k0)
}

// store reduces x, a value below 2m, into [0, m) and packs it into the
// 16-word z. The subtraction is kept or dropped by a mask, not a branch.
func (ln *lane52) store(z []big.Word, x *[20]uint64) {
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
	out := make([]big.Word, 2*mo.k)
	z1, z2 := out[:mo.k:mo.k], out[mo.k:]
	top := fixedTop(max(e1.q.BitLen(), e2.q.BitLen()))
	if mo.lane != nil {
		mo.expPairLane(z1, z2, b1.w, &e1.w, b2.w, &e2.w, top)
	} else {
		mo.expPairMont(z1, z2, b1.w, &e1.w, b2.w, &e2.w, top)
	}
	return Elem{z1}, Elem{z2}
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
	z := make([]big.Word, mo.k)
	mo.expFixedMont(z, base.w, &e.w, fixedTop(e.q.BitLen()), make([]big.Word, (fixedEntries+1)*mo.k))
	return Elem{z}
}

// expPairLane is ExpPair on amm52x20x2, reading x1's and x2's digits top
// down from digit top. The table of each base's powers 0 to 15, two
// lanes per entry, lives on the stack.
func (mo *Modulus) expPairLane(z1, z2, b1 []big.Word, x1 *scalarWords, b2 []big.Word, x2 *scalarWords, top int) {
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

// productLane is packedProduct on amm52x20x2, for count >= 1 raw
// residues. The correction c = R'^count·R^d heads the sequence c, v_0,
// …, v_{count-1}, whose even slots run in lane 0 and odd slots in lane 1;
// a lane with no factor left takes the kernel's image of 1. One last call
// joins the two accumulators. Each of the count products that takes a
// factor divides by R', so the result is c·Π v·R'^{-count} = Π v·R^d.
// That is ceil((count+1)/2) calls for count montMul products.
func (mo *Modulus) productLane(z, flat []big.Word, count, d int) {
	ln, k := mo.lane, mo.k
	var acc, t pair52
	to52(&acc[0], mo.twoPow(1040*count+1024*d))
	to52(&acc[1], flat[:k])
	for i := 1; i < count; i += 2 {
		to52(&t[0], flat[i*k:(i+1)*k])
		if i+1 < count {
			to52(&t[1], flat[(i+1)*k:(i+2)*k])
		} else {
			t[1] = ln.one
		}
		ln.mul(&acc, &acc, &t)
	}
	ln.mul1(&acc[0], &acc[0], &acc[1])
	ln.store(z, &acc[0])
}

// prefixLane is PrefixProducts on amm52x20x2 for n >= 2: it sets prefix
// to S_{n-1}·R^{-(n-1)} and acc to the Horner product's image Π S_t·R.
// Call j steps both halves of the chain: lane 0 takes the prefix from
// S_{j-1} to S_j while lane 1 multiplies the accumulator by S_{j-1},
// read before the call stores S_j. The accumulator starts at the
// kernel's image of 1, so the n-1 calls leave S_{n-1}·R'^{-(n-1)} and
// Π S_t·R'^{-e}, e = (n-2)(n+1)/2. One more call joins both
// corrections: 2^(16(n-1)+1040) turns R'^{-(n-1)} into R^{-(n-1)}, and
// 2^(1040e+2064) turns R'^{-e} into R, so the image costs no product.
func (mo *Modulus) prefixLane(prefix, acc, xs []big.Word, i, n int) {
	ln, k := mo.lane, mo.k
	x := func(j int) []big.Word { j %= n; return xs[j*k : (j+1)*k] }
	var p, a, t [20]uint64
	to52(&p, x(i))
	a = ln.one
	for j := 1; j < n; j++ {
		to52(&t, x(i+j))
		ln.mul2(&p, &p, &t, &a, &a, &p)
	}
	var cp, ca [20]uint64
	to52(&cp, mo.twoPow(16*(n-1)+1040))
	to52(&ca, mo.twoPow(1040*((n-2)*(n+1)/2)+2064))
	ln.mul2(&p, &p, &cp, &a, &a, &ca)
	ln.store(prefix, &p)
	ln.store(acc, &a)
}
