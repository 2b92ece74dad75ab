package mathx

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// Scalar is a secret value below a public bound q: a member's r_i, a
// controller's r' or a joiner's r_{n+1}, a GQ commitment τ, a group key,
// a private signing key or a PKG master secret. It is opaque: it has no
// Bytes and no big.Int view but BigVarTime, it formats as a fixed
// redaction, and its words sit two pointers away (scalarRef), so fmt
// shows none of them wherever it reaches the Scalar. The words are never
// written after construction, so copies share them and Neg allocates
// new ones. Every power of it (ExpPair, ExpFixed) walks the fixed window
// over its order's bit length, whatever its value. The zero Scalar has
// no order and holds no value.
//
// As in the Go toolchain's crypto/internal/fips140/bigmod, every
// operation on a Scalar is constant-time unless its name ends in
// VarTime, and the consttime analyzer reports a branch, a loop bound or
// a table index on a Scalar, its words or its digits.
type Scalar struct {
	r *scalarRef
	q *big.Int
}

// scalarRef leads to a Scalar's words and holds nothing else. Where fmt
// reaches a Scalar by reflection (in an unexported field, at any depth)
// it prints the pointer to the scalarRef as an address, or, under a verb
// that does not apply to pointers such as %s, the scalarRef itself,
// whose one field it prints as an address. The scalarRef heads the
// words' own allocation, scalarBox.
type scalarRef struct{ w *scalarWords }

// scalarBox is a Scalar's one allocation: its scalarRef and its words.
type scalarBox struct {
	scalarRef
	words scalarWords
}

// newScalarRef returns the scalarRef of a new scalarBox, its words zero.
func newScalarRef() *scalarRef {
	b := new(scalarBox)
	b.w = &b.words
	return &b.scalarRef
}

// maxScalarBits bounds a Scalar's order.
const maxScalarBits = 1024

// scalarWords holds a secret exponent's words, least significant first,
// zero above its order's width. Like expDigit, every value of it is
// secret to the consttime analyzer.
type scalarWords [maxScalarBits / wordBits]big.Word

// expDigit is one fixedWindow-bit digit of a secret exponent.
type expDigit uint

// NewScalar returns v as a Scalar below q, for 0 ≤ v < q and an order q
// of at most 1024 bits.
func NewScalar(q, v *big.Int) (Scalar, error) {
	if q == nil || q.Sign() <= 0 || q.BitLen() > maxScalarBits {
		return Scalar{}, errors.New("mathx: Scalar order out of range")
	}
	if v == nil || v.Sign() < 0 || v.Cmp(q) >= 0 {
		return Scalar{}, errors.New("mathx: Scalar value out of [0, q)")
	}
	s := Scalar{newScalarRef(), q}
	copy(s.r.w[:], v.Bits())
	return s, nil
}

// DrawScalar draws a uniform Scalar in [1, q-1]. It draws through
// RandScalar, so it reads the same random bytes and yields the same
// value.
func DrawScalar(r io.Reader, q *big.Int) (Scalar, error) {
	v, err := RandScalar(r, q)
	if err != nil {
		return Scalar{}, err
	}
	return NewScalar(q, v)
}

// Neg returns q − s in new words, so that z^{q−s} = z^{−s} for z of
// order q, with no field inverse. It is one borrow chain over every word
// of q, whatever s's value. The negation of 0 is q itself, which a power
// still reads whole.
func (s Scalar) Neg() Scalar {
	qw, n := s.q.Bits(), newScalarRef()
	var b uint
	for i := range len(qw) {
		d, bb := bits.Sub(uint(qw[i]), uint(s.r.w[i]), b)
		n.w[i], b = big.Word(d), bb
	}
	return Scalar{n, s.q}
}

// Order returns the public bound q, which the caller must not modify,
// or nil for the zero Scalar.
func (s Scalar) Order() *big.Int { return s.q }

// BigVarTime returns s as a big.Int, whose arithmetic is variable-time:
// each call names a variable-time use of the secret at its call site.
func (s Scalar) BigVarTime() *big.Int {
	return new(big.Int).SetBits(append([]big.Word(nil), s.r.w[:len(s.q.Bits())]...))
}

// Format prints the same redaction for every verb, so a Scalar in a log
// line or a wrapped error shows no word of its value.
func (Scalar) Format(f fmt.State, _ rune) { io.WriteString(f, "mathx.Scalar(redacted)") }

// digit returns the i-th fixedWindow-bit digit of x, the least
// significant being digit 0. A digit never straddles two words.
func digit(x *scalarWords, i int) expDigit {
	return expDigit(x[i*fixedWindow/wordBits]>>(i*fixedWindow%wordBits)) & (fixedEntries - 1)
}

// fixedTop returns the index of the top digit under a bits-bit bound.
func fixedTop(bits int) int { return (bits+fixedWindow-1)/fixedWindow - 1 }
