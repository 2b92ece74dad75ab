// Package scalar leaks a mathx.Scalar, which is secret by type wherever
// it is held.
package scalar

import (
	"fmt"
	"io"
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

// state holds a Scalar by value in an unexported field, as the engine's
// flow states do: fmt never calls Scalar's Format on an unexported field
// and prints its words by reflection under %v.
type state struct {
	n int
	r mathx.Scalar
}

// wrapped prints an unnamed struct that holds a Scalar by value.
func wrapped(s mathx.Scalar) string {
	return fmt.Sprintf("%+v", struct{ r mathx.Scalar }{s}) // want `secret idgka/internal/mathx\.Scalar reaches fmt formatting`
}

// held prints a holder reached through a pointer, and one public field.
func held(st *state) {
	fmt.Printf("%+v\n", st) // want `secret scalar\.state reaches fmt formatting`
	fmt.Println(st.n)
}

// outer holds a holder by value, and a slice of them.
type outer struct {
	inner state
}

// ring holds its states in a slice.
type ring struct {
	states []state
}

// nested prints holders of holders.
func nested(o outer, r ring) error {
	fmt.Println(r)                   // want `secret scalar\.ring reaches fmt formatting`
	return fmt.Errorf("%v", o.inner) // want `secret scalar\.state reaches fmt formatting`
}

// pointed holds the holder behind a pointer: fmt prints an address.
type pointed struct {
	st *state
}

// sealed holds a Scalar but redacts itself whole.
type sealed struct {
	r mathx.Scalar
}

// Format redacts: its receiver is unnamed.
func (*sealed) Format(f fmt.State, _ rune) { io.WriteString(f, "sealed") }

// fine prints values that hold no Scalar words.
func fine(p pointed, s sealed) {
	fmt.Println(p)
	fmt.Println(s)
}

// show formats any value it is given.
func show(v any) { fmt.Println(v) }

// keep takes a holder and formats nothing.
func keep(st state) int { return st.n }

// passed hands holders to helpers: one formats it, one does not.
func passed(st state) int {
	show(st) // want `secret scalar\.state reaches fmt formatting \(via show\)`
	return keep(st)
}
