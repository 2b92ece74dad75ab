// Package mathx replicates the repo's crypto hot-path import path so
// the consttime analyzer's scoping, and its secret types, apply to the
// fixture.
package mathx

import "math/big"

// scalarWords and expDigit mirror the real exponent word and digit
// types: every value of them is secret.
type (
	scalarWords [4]big.Word
	expDigit    uint
)

// Scalar mirrors the real opaque secret: secret words behind a
// pointer, public order.
type Scalar struct {
	w *scalarWords
	q *big.Int
}

// Select branches and table-indexes on secret words — the classic
// sliding-window leak shape.
func Select(s Scalar, table []uint32) uint32 {
	if s.w[0]&1 == 1 { // want `secret-dependent branch on idgka/internal/mathx\.scalarWords`
		return table[s.w[1]] // want `secret-dependent table index on idgka/internal/mathx\.scalarWords`
	}
	return 0
}

// Iterate loops over the secret: the body's trip pattern leaks its
// content.
func Iterate(s Scalar) int {
	n := 0
	for _, w := range s.w { // want `secret-dependent loop bound on idgka/internal/mathx\.scalarWords`
		n += int(w)
	}
	return n
}

// Validate stays clean: nil-ness is presence, not content.
func Validate(s Scalar) bool {
	if s.w == nil {
		return false
	}
	return true
}

// Waived is the sanctioned escape hatch for deliberate variable-time
// code.
func Waived(s Scalar, table []uint32) uint32 {
	//gkalint:vartime fixture justification for a deliberate branch
	if s.w[0] == 0 {
		return table[0]
	}
	return 1
}

// Public control flow stays silent.
func Public(n int, table []uint32) uint32 {
	if n > 0 {
		return table[n]
	}
	return 0
}

func digit(x *scalarWords, i int) expDigit {
	return expDigit(x[i/16]>>(i%16*4)) & 15
}

// inner is the typed successor of the old forward-pass case: it never
// sees a Scalar, but its parameter's type is a digit, so the branch is
// found in its own body, whoever calls it.
func inner(d expDigit) int {
	if d == 0 { // want `secret-dependent branch on idgka/internal/mathx\.expDigit`
		return 1
	}
	return 0
}

// Outer feeds a digit across the call edge.
func Outer(s Scalar) int {
	return inner(digit(s.w, 0))
}

// untyped takes a plain integer: a digit converted before the call is
// no longer followed into it (the narrowing the typed rule accepts).
func untyped(k uint) int {
	if k == 0 {
		return 1
	}
	return 0
}

// OuterUntyped converts the digit away before the call.
func OuterUntyped(s Scalar) int {
	return untyped(uint(digit(s.w, 0)))
}

func mul(z, x, y *[4]big.Word) {}

// pairWalk is the two-lane walk with a mutation from the fixed-window
// work: it skips the product when both lanes' digits are zero.
func pairWalk(acc, t *[4]big.Word, x1, x2 *scalarWords, top int) {
	for i := top - 1; i >= 0; i-- {
		mul(acc, acc, acc)
		d1, d2 := digit(x1, i), digit(x2, i)
		if uint64(d1)|uint64(d2) == 0 { // want `secret-dependent branch on idgka/internal/mathx\.expDigit`
			continue
		}
		mul(acc, acc, t)
	}
}

// chainWalk is the one-chain walk with the same mutation, on the digit
// call itself, and a table read by digit.
func chainWalk(z *[4]big.Word, pows [][4]big.Word, x *scalarWords, top int) {
	for i := top - 1; i >= 0; i-- {
		mul(z, z, z)
		if digit(x, i) != 0 { // want `secret-dependent branch on idgka/internal/mathx\.expDigit`
			t := pows[digit(x, i)] // want `secret-dependent table index on idgka/internal/mathx\.expDigit`
			mul(z, z, &t)
		}
	}
}

// LowBit branches through a local derived from a Scalar's words.
func LowBit(s Scalar) int {
	w := s.w[0]
	low := w & 1
	if low == 1 { // want `secret-dependent branch on local low`
		return 1
	}
	return 0
}

// Order branches on the Scalar's public order only.
func Order(s Scalar) int {
	if s.q.BitLen() > 160 {
		return 1
	}
	return 0
}

// TopWordVarTime is variable-time by name: its branches are not
// reported, and its callers name the variable-time use.
func (s Scalar) TopWordVarTime() int {
	for i := len(s.w) - 1; i >= 0; i-- {
		if s.w[i] != 0 {
			return i
		}
	}
	return -1
}
