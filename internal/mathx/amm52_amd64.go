//go:build !math_big_pure_go

package mathx

import "math/big"

// amm52x20x2 computes two independent almost-Montgomery products over
// one modulus in radix 2^52 (amm52_amd64.s): r1 = a1·b1·2^-1040 and
// r2 = a2·b2·2^-1040 mod m, each below 2m, for 20-limb operands of 52
// bits below 2m and k0 = -m^{-1} mod 2^52. big.Word is 64 bits wherever
// it runs, so the limbs of an Elem, a Packed slot or a table entry pass
// as they are. It reads every operand before it stores, so r1 and r2
// may alias any a or b, the other lane's too, but not each other. It
// needs AVX512F, AVX512VL, AVX512IFMA and BMI2; hasAMM52 says whether
// the CPU and OS provide them.
//
//go:noescape
func amm52x20x2(r1, a1, b1, r2, a2, b2, m *[20]big.Word, k0 uint64)

// norm52x2 runs amm52x20x2's carry pass alone (amm52_amd64.s): it sets
// r1 and r2 to x1 and x2, 20 limbs of 64 bits each, mod 2^1040 in limbs
// of exactly 52 bits. r1 and r2 may alias x1 and x2. Only tests call it:
// random products almost never reach the pass's second step. It needs
// AVX512F and AVX512VL, which hasAMM52 implies.
//
//go:noescape
func norm52x2(r1, x1, r2, x2 *[20]uint64)

// sel52x2 sets dst[0] to tab[d1][0] and dst[1] to tab[d2][1], reading
// all n >= 1 entries of tab with masks, so its memory accesses and
// branches do not depend on the digits (amm52_amd64.s). Digits of n or
// more select zero. It needs AVX512F and AVX512VL, which hasAMM52
// implies.
//
//go:noescape
func sel52x2(dst, tab *pair52, n int, d1, d2 uint64)

// xgetbv reads XCR0, the register of state components the OS saves
// (cpuid_amd64.s).
func xgetbv() (eax, edx uint32)

// hasAMM52 reports whether this CPU and OS run amm52x20x2. The CPU must
// report OSXSAVE (leaf 1 ECX bit 27) and, in leaf 7 EBX, BMI2 (bit 8),
// AVX512F (bit 16), AVX512IFMA (bit 21) and AVX512VL (bit 31). The OS
// must save the SSE and AVX state and the three AVX-512 components:
// XCR0 bits 1, 2, 5, 6 and 7.
var hasAMM52 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const want = 1<<8 | 1<<16 | 1<<21 | 1<<31
	return ebx&want == want
}()
