// Package engine is the fixture stub of idgka/internal/engine: its
// ringState.edge matches the built-in secret list's marked field.
package engine

import (
	"fmt"

	"idgka/internal/mathx"
)

// ringState's only secret is edge, a marked mathx.Elem field. Elem is no
// secret type, and fmt prints an unexported field's limbs by reflection
// without calling Elem's redacting Format.
type ringState struct {
	n    int
	edge mathx.Elem
}

// dump formats the state whole.
func dump(rs *ringState) string {
	return fmt.Sprintf("%+v", rs) // want `secret idgka/internal/engine\.ringState reaches fmt formatting`
}

// size prints a public field.
func size(rs *ringState) {
	fmt.Println(rs.n)
}

// residue holds an Elem in no marked field: a public residue.
type residue struct {
	e mathx.Elem
}

// show prints the public residue's holder.
func show(r residue) {
	fmt.Println(r)
}
