// Package mathx is the fixture stub of idgka/internal/mathx: its Scalar
// matches the builtin secret list's type root, and its Elem is the
// residue type of the list's marked engine field.
package mathx

import (
	"fmt"
	"io"
	"math/big"
)

// Scalar mirrors the real opaque secret exponent.
type Scalar struct {
	w [4]big.Word
	q *big.Int
}

// Draw returns a fresh Scalar.
func Draw(q *big.Int) (Scalar, error) {
	if q == nil {
		return Scalar{}, fmt.Errorf("mathx: no order")
	}
	return Scalar{q: q}, nil
}

// Format redacts: with an unnamed receiver it cannot read the value, so
// it is neither reported nor in need of a waiver.
func (Scalar) Format(f fmt.State, _ rune) { io.WriteString(f, "mathx.Scalar(redacted)") }

// BigVarTime is the escape hatch: its result is the secret.
func (s Scalar) BigVarTime() *big.Int {
	return new(big.Int).SetBits(append([]big.Word(nil), s.w[:]...))
}

// Elem mirrors the real Montgomery residue: no secret type, with a
// redacting Format that fmt calls only where it can reach the method.
type Elem struct {
	w []big.Word
}

// Format redacts, with an unnamed receiver.
func (Elem) Format(f fmt.State, _ rune) { io.WriteString(f, "mathx.Elem(redacted)") }
