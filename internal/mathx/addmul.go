//go:build !math_big_pure_go

package mathx

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// addMulWin computes z += x·y over the len(z)-word window and returns the
// outgoing carry; len(x) must be at least len(z). It is math/big's own
// assembly kernel (ADX/BMI2 on amd64), which the standard library keeps
// linkable from outside packages (see addMulVVW in math/big's
// arith_decl.go).
//
//go:linkname addMulWin math/big.addMulVVW
//go:noescape
func addMulWin(z, x []big.Word, y big.Word) (c big.Word)
