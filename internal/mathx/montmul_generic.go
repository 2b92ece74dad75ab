//go:build !amd64 || math_big_pure_go

package mathx

import "math/big"

// hasMontMul1024 and hasAMM52 are false where there is no assembly
// kernel: other architectures, and math_big_pure_go builds.
const (
	hasMontMul1024 = false
	hasAMM52       = false
)

// montMul1024 is never called where hasMontMul1024 is false.
func montMul1024(z, x, y, m *[16]big.Word, n0 big.Word) {
	panic("mathx: no 1024-bit Montgomery kernel in this build")
}

// amm52x20x2 is never called where hasAMM52 is false.
func amm52x20x2(r1, a1, b1, r2, a2, b2, m *[20]uint64, k0 uint64) {
	panic("mathx: no radix-2^52 kernel in this build")
}

// sel52x2 is never called where hasAMM52 is false.
func sel52x2(dst, tab *pair52, n int, d1, d2 uint64) {
	panic("mathx: no radix-2^52 kernel in this build")
}

// norm52x2 is never called where hasAMM52 is false.
func norm52x2(r1, x1, r2, x2 *[20]uint64) {
	panic("mathx: no radix-2^52 kernel in this build")
}
