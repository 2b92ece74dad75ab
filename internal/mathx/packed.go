package mathx

import (
	"encoding/binary"
	"math/big"
	"slices"
)

// Packed holds a run of plain residues of one Modulus, one slot each, in
// the modulus' representation: the form the protocols' per-member values
// take from the wire to the product chains (ProductOf, ProductMontOf,
// PrefixProducts). A slot holds a value in (0, m) or reads as empty:
// Load and LoadBytes clear it when they refuse a value. Like an Elem, a
// Packed is opaque and only meaningful with a Modulus of the same value
// and representation as the one that made it.
type Packed struct {
	mo *Modulus
	w  []big.Word // slot i at w[i·k:(i+1)·k]
}

// NewPacked returns n empty slots for mo's values.
func (mo *Modulus) NewPacked(n int) Packed { return Packed{mo, make([]big.Word, n*mo.k)} }

// Len returns the number of slots.
func (p Packed) Len() int {
	if p.mo == nil {
		return 0
	}
	return len(p.w) / p.mo.k
}

// slot returns slot i's limbs; its capacity ends at its last limb.
func (p Packed) slot(i int) []big.Word {
	k := p.mo.k
	return p.w[i*k : (i+1)*k : (i+1)*k]
}

// Load stores v in slot i and reports whether it lies in (0, m).
func (p Packed) Load(i int, v *big.Int) bool {
	s := p.slot(i)
	if v == nil || v.Sign() <= 0 || v.Cmp(p.mo.m) >= 0 {
		clear(s)
		return false
	}
	p.mo.fromWords(s, v.Bits())
	return true
}

// LoadBytes decodes the big-endian integer b straight into slot i's
// limbs and reports whether it lies in (0, m). Leading zero bytes are
// allowed, as in big.Int.SetBytes; b is peer input, so anything longer
// than m's bytes is refused unread.
func (p Packed) LoadBytes(i int, b []byte) bool {
	mo, s := p.mo, p.slot(i)
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) > (mo.m.BitLen()+7)/8 {
		clear(s)
		return false
	}
	// b right-aligned in the slot's width of big-endian bytes.
	var buf [maxModulusWords * wordBits / 8]byte
	n := mo.k * int(mo.limbBits) / 8
	e := buf[:n]
	copy(e[n-len(b):], b)
	switch {
	case mo.lane: // limbs 2g and 2g+1 are the 13 bytes that end 13g bytes from the end
		for g := range 10 {
			grp := e[n-13*g-13 : n-13*g]
			s[2*g] = big.Word(binary.BigEndian.Uint64(grp[5:]) & mask52)
			s[2*g+1] = big.Word(binary.BigEndian.Uint64(grp[:8]) >> 12)
		}
	case wordBits == 64:
		for w := range s {
			s[w] = big.Word(binary.BigEndian.Uint64(e[n-8*w-8:]))
		}
	default:
		for w := range s {
			s[w] = big.Word(binary.BigEndian.Uint32(e[n-4*w-4:]))
		}
	}
	if !p.InRange(i) {
		clear(s)
		return false
	}
	return true
}

// InRange reports whether slot i holds a value in (0, m).
func (p Packed) InRange(i int) bool {
	s := p.slot(i)
	for _, w := range s {
		if w != 0 {
			return !geWords(s, p.mo.words)
		}
	}
	return false
}

// ToMont returns slot i's value in the Montgomery domain, as
// Modulus.ToMont does for a big.Int.
func (p Packed) ToMont(i int) Elem { return p.mo.toMont(p.slot(i)) }

// Bytes returns slot i's value as minimal big-endian bytes, as
// big.Int.Bytes does; an empty slot gives none.
func (p Packed) Bytes(i int) []byte { return p.mo.bigOf(p.slot(i)).Bytes() }

// Copy sets slot i to src's slot j, src being a Packed of the same
// Modulus, or one of the same value and representation.
func (p Packed) Copy(i int, src Packed, j int) { copy(p.slot(i), src.slot(j)) }

// Product returns Π values mod m, bit-identical to ProductMod: an empty
// slice yields 1 and values outside [0, m) are reduced first. It is one
// chain of count products, one value converted at a time, that starts
// at R^count to cancel the chain's count divisions by R.
func (mo *Modulus) Product(values []*big.Int) *big.Int {
	var abuf, vbuf [maxModulusWords]big.Word
	acc := abuf[:mo.k]
	copy(acc, mo.rPow(len(values)))
	for _, v := range values {
		mo.mul(acc, acc, mo.limbs(&vbuf, v))
	}
	mo.reduce(acc, acc)
	return mo.bigOf(acc)
}

// ProductOf returns Π v mod m over p's slots, each in [0, m), like
// Product but with no per-value conversion. No slots yield 1.
func (mo *Modulus) ProductOf(p Packed) *big.Int {
	var buf [maxModulusWords]big.Word
	acc := buf[:mo.k]
	mo.packedProduct(acc, p, 0)
	return mo.bigOf(acc)
}

// ProductMontOf is ProductOf that leaves the product in the Montgomery
// domain, for a caller that goes on computing there: the correction
// product lands on the image directly, with no conversion out and back.
func (mo *Modulus) ProductMontOf(p Packed) Elem {
	z := mo.newElem()
	mo.packedProduct(z.limbs(), p, 1)
	return z
}

// packedProduct sets acc, in [0, m), to Π v·R^d mod m over p's slots, d
// being 0 for the raw product and 1 for its Montgomery image. Each
// Montgomery product of two raw residues divides by R once, so the chain
// over count values leaves Π v·R^{-(count-1)}, and one final product
// with the cached R^{count+d} leaves Π v·R^d: count products, with no
// division and no per-value conversion. On the radix-2^52 lane
// (productLane) two such chains run side by side.
func (mo *Modulus) packedProduct(acc []big.Word, p Packed, d int) {
	count := p.Len()
	switch {
	case count == 0:
		copy(acc, mo.rPow(d))
	case mo.lane:
		mo.productLane(acc, p, count, d)
	default:
		copy(acc, p.slot(0))
		for i := 1; i < count; i++ {
			mo.mul(acc, acc, p.slot(i))
		}
		mo.mul(acc, acc, mo.rPow(count+d))
	}
}

// PrefixProducts runs the one chain under Lemma 1 and equation (3) over
// the ring of n raw residues in xs (X_j in slot j, each in [0, m)),
// starting at slot i. With S_t = X_i···X_{i+t} (indices mod n) it
// returns the Horner product S_0·S_1···S_{n-2} as a Montgomery image,
// the image of 1 when n = 1, and whether S_{n-1} = Π X_j ≡ 1 mod m
// (Lemma 1).
//
// On montMul that is 2n-2 products for n > 1. In 2n-3 of them the prefix
// steps to S_j while the Horner product takes S_{j-1}; they leave
// S_{n-1}·R^{-(n-1)}, which Lemma 1 compares with the cached R^{-(n-1)},
// and Π S_t·R^{-e}, e = (n-2)(n+1)/2, which the last product, with the
// cached R^{e+2}, turns into its image. On the radix-2^52 lane both
// steps of each j are one call: n calls in all (prefixLane). Both give
// the same values.
func (mo *Modulus) PrefixProducts(xs Packed, i int) (Elem, bool) {
	k, n := mo.k, xs.Len()
	x := func(j int) []big.Word { return xs.slot(j % n) }
	var pbuf [maxModulusWords]big.Word
	z := mo.newElem()
	prefix, acc := pbuf[:k], z.limbs()
	switch {
	case n == 1:
		copy(prefix, x(i))
		copy(acc, mo.one)
	case mo.lane:
		mo.prefixLane(prefix, acc, x, i, n)
	default:
		copy(prefix, x(i))
		copy(acc, prefix)
		for j := 1; j <= n-2; j++ {
			mo.mul(prefix, prefix, x(i+j))
			mo.mul(acc, acc, prefix)
		}
		mo.mul(prefix, prefix, x(i+n-1))
		mo.mul(acc, acc, mo.rPow((n-2)*(n+1)/2+2))
	}
	return z, slices.Equal(prefix, mo.rPow(1-n))
}
