//go:build math_big_pure_go

package mathx

import (
	"math/big"
	"math/bits"
)

// addMulWin computes z += x·y over the len(z)-word window and returns the
// outgoing carry; len(x) must be at least len(z). math_big_pure_go builds
// have no assembly kernel to link against, so this is the generic loop.
func addMulWin(z, x []big.Word, y big.Word) big.Word {
	yy := uint(y)
	x = x[:len(z)]
	var c uint
	for i, zi := range z {
		hi, lo := bits.Mul(uint(x[i]), yy)
		lo, cc := bits.Add(lo, c, 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(zi), 0)
		z[i] = big.Word(lo)
		c = hi + cc
	}
	return big.Word(c)
}
