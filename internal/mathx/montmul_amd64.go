//go:build !math_big_pure_go

package mathx

import "math/big"

// montMul1024 computes z = x·y·R^{-1} mod m for a 16-word m with
// n0 = -m^{-1} mod 2^64, in one call (montmul_amd64.s). z may alias x or
// y. It needs ADX and BMI2; hasMontMul1024 says whether the CPU has
// them.
//
//go:noescape
func montMul1024(z, x, y, m *[16]big.Word, n0 big.Word)

// cpuid executes CPUID for one leaf and subleaf (cpuid_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// hasMontMul1024 reports whether this CPU runs montMul1024: leaf 7
// reports BMI2 (MULX) in EBX bit 8 and ADX (ADCX/ADOX) in EBX bit 19.
var hasMontMul1024 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()
