//go:build !amd64 || math_big_pure_go

package mathx

import "math/big"

// hasMontMul1024 is false where there is no assembly kernel: other
// architectures, and math_big_pure_go builds.
const hasMontMul1024 = false

// montMul1024 is never called where hasMontMul1024 is false.
func montMul1024(z, x, y, m *[16]big.Word, n0 big.Word) {
	panic("mathx: no 1024-bit Montgomery kernel in this build")
}
