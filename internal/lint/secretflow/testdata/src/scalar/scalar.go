// Package scalar leaks a mathx.Scalar, which is secret by type wherever
// it is held.
package scalar

import (
	"fmt"
	"math/big"

	"idgka/internal/mathx"
)

// draw holds a fresh exponent in a local and wraps it into an error: no
// marked field ever holds it, and the type alone makes it a root.
func draw(q *big.Int) error {
	r, err := mathx.Draw(q)
	if err != nil {
		return fmt.Errorf("draw: %w", err)
	}
	return fmt.Errorf("drew %v", r) // want `secret idgka/internal/mathx\.Scalar reaches fmt formatting`
}

// escape prints the escape hatch's big.Int.
func escape(r mathx.Scalar) {
	v := r.BigVarTime()
	fmt.Println(v.Text(16)) // want `secret idgka/internal/mathx\.Scalar reaches fmt formatting`
}

// order prints a public value computed next to the secret.
func order(r mathx.Scalar, q *big.Int) {
	_ = r
	fmt.Println(q.BitLen())
}
