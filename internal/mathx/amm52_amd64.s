//go:build !math_big_pure_go

#include "textflag.h"

// Two independent almost-Montgomery products over one shared modulus in
// radix 2^52, after Gueron and Krasnov's AVX-512 IFMA method: each of the
// 20 rows adds a·b_i and q_i·m into a 20-limb vector accumulator per lane
// with VPMADD52LUQ/VPMADD52HUQ and shifts it down one limb. Operands are
// 20 limbs of 52 bits below 2m with R' = 2^1040; since 4m < R' the result
// is below 2m as well and needs no final subtraction.
//
// Register use across the row loop:
//
//	SI   a1           DI   a2           CX   m
//	BX   b1           R8   b2           R11  row index i
//	R9   lane 1's limb 0, exact           R10  lane 2's limb 0, exact
//	AX, DX, R12, R13  scalar scratch
//	Y16-Y20  lane 1's accumulator limbs 0-19 (limb 0 lives in R9)
//	Y21-Y25  lane 2's accumulator limbs 0-19 (limb 0 lives in R10)
//	Y26, Y27 lane 1's b_i and q_i broadcast
//	Y28, Y29 lane 2's b_i and q_i broadcast
//	Y30      zero
//
// Every accumulator limb takes at most four 52-bit terms per row, so 20
// rows stay below 2^59 and never overflow their 64 bits.

// SCALAR computes one lane's row multiplier q_i = (acc + a_0·b_i)·k0 mod
// 2^52 and broadcasts b_i into bv and q_i into qv. It leaves the lane's
// exact limb 0 shifted down one limb: acc = (acc + a_0·b_i + q_i·m_0) / 2^52,
// a 128-bit sum held in R12:acc.
#define SCALAR(bptr, aptr, acc, bv, qv) \
	MOVQ         (bptr)(R11*8), R13; \
	VPBROADCASTQ R13, bv; \
	MOVQ         (aptr), DX; \
	MULXQ        R13, R13, R12; \
	ADDQ         R13, acc; \
	ADCQ         $0, R12; \
	MOVQ         k0+56(FP), R13; \
	IMULQ        acc, R13; \
	MOVQ         $0xfffffffffffff, AX; \
	ANDQ         AX, R13; \
	VPBROADCASTQ R13, qv; \
	MOVQ         (CX), DX; \
	MULXQ        R13, R13, AX; \
	ADDQ         R13, acc; \
	ADCQ         AX, R12; \
	SHRQ         $52, acc; \
	SHLQ         $12, R12; \
	ORQ          R12, acc

// MADD adds the low (op = VPMADD52LUQ) or high (op = VPMADD52HUQ) 52-bit
// halves of a·bv and m·qv into the lane's five accumulator registers.
#define MADD(op, aptr, bv, qv, A0, A1, A2, A3, A4) \
	op 0(aptr), bv, A0; \
	op 32(aptr), bv, A1; \
	op 64(aptr), bv, A2; \
	op 96(aptr), bv, A3; \
	op 128(aptr), bv, A4; \
	op 0(CX), qv, A0; \
	op 32(CX), qv, A1; \
	op 64(CX), qv, A2; \
	op 96(CX), qv, A3; \
	op 128(CX), qv, A4

// SHIFT moves the lane's accumulator down one limb, zero-filling limb 19.
// The limb it drops is limb 0, whose exact value the lane keeps in a GPR.
#define SHIFT(A0, A1, A2, A3, A4) \
	VALIGNQ $1, A0, A1, A0; \
	VALIGNQ $1, A1, A2, A1; \
	VALIGNQ $1, A2, A3, A2; \
	VALIGNQ $1, A3, A4, A3; \
	VALIGNQ $1, A4, Y30, A4

// STORE writes the lane's accumulator to r, with the exact limb 0 from
// acc in place of the vector's.
#define STORE(r, acc, A0, A1, A2, A3, A4) \
	VMOVDQU64 A0, 0(r); \
	VMOVDQU64 A1, 32(r); \
	VMOVDQU64 A2, 64(r); \
	VMOVDQU64 A3, 96(r); \
	VMOVDQU64 A4, 128(r); \
	MOVQ      acc, 0(r)

// NORM carries limb j of both results (at AX and BX) into 52 bits, with
// the incoming and outgoing carries in R9 and R10 and the mask in DX.
#define NORM(j) \
	MOVQ (j*8)(AX), R12; \
	MOVQ (j*8)(BX), R13; \
	ADDQ R9, R12; \
	ADDQ R10, R13; \
	MOVQ R12, R9; \
	MOVQ R13, R10; \
	SHRQ $52, R9; \
	SHRQ $52, R10; \
	ANDQ DX, R12; \
	ANDQ DX, R13; \
	MOVQ R12, (j*8)(AX); \
	MOVQ R13, (j*8)(BX)

// func amm52x20x2(r1, a1, b1, r2, a2, b2, m *[20]uint64, k0 uint64)
// Requires: AVX512F, AVX512VL, AVX512IFMA, BMI2
TEXT ·amm52x20x2(SB), NOSPLIT, $0-64
	MOVQ   a1+8(FP), SI
	MOVQ   b1+16(FP), BX
	MOVQ   a2+32(FP), DI
	MOVQ   b2+40(FP), R8
	MOVQ   m+48(FP), CX
	XORQ   R9, R9
	XORQ   R10, R10
	XORQ   R11, R11
	VPXORQ Y16, Y16, Y16
	VPXORQ Y17, Y17, Y17
	VPXORQ Y18, Y18, Y18
	VPXORQ Y19, Y19, Y19
	VPXORQ Y20, Y20, Y20
	VPXORQ Y21, Y21, Y21
	VPXORQ Y22, Y22, Y22
	VPXORQ Y23, Y23, Y23
	VPXORQ Y24, Y24, Y24
	VPXORQ Y25, Y25, Y25
	VPXORQ Y30, Y30, Y30

row:
	SCALAR(BX, SI, R9, Y26, Y27)
	SCALAR(R8, DI, R10, Y28, Y29)
	MADD(VPMADD52LUQ, SI, Y26, Y27, Y16, Y17, Y18, Y19, Y20)
	MADD(VPMADD52LUQ, DI, Y28, Y29, Y21, Y22, Y23, Y24, Y25)
	SHIFT(Y16, Y17, Y18, Y19, Y20)
	SHIFT(Y21, Y22, Y23, Y24, Y25)

	// The new limb 0 of each lane: its shifted-in vector value joins the
	// carry already in the GPR. The high halves added next belong to
	// limb 0 too, but the scalar shift has already counted them.
	VMOVQ X16, R13
	ADDQ  R13, R9
	VMOVQ X21, R13
	ADDQ  R13, R10
	MADD(VPMADD52HUQ, SI, Y26, Y27, Y16, Y17, Y18, Y19, Y20)
	MADD(VPMADD52HUQ, DI, Y28, Y29, Y21, Y22, Y23, Y24, Y25)
	INCQ R11
	CMPQ R11, $20
	JB   row

	MOVQ r1+0(FP), AX
	MOVQ r2+24(FP), BX
	STORE(AX, R9, Y16, Y17, Y18, Y19, Y20)
	STORE(BX, R10, Y21, Y22, Y23, Y24, Y25)
	VZEROUPPER

	// Both results are below 2m < 2^1040, so the carry out of limb 19
	// is zero.
	MOVQ $0xfffffffffffff, DX
	XORQ R9, R9
	XORQ R10, R10
	NORM(0)
	NORM(1)
	NORM(2)
	NORM(3)
	NORM(4)
	NORM(5)
	NORM(6)
	NORM(7)
	NORM(8)
	NORM(9)
	NORM(10)
	NORM(11)
	NORM(12)
	NORM(13)
	NORM(14)
	NORM(15)
	NORM(16)
	NORM(17)
	NORM(18)
	NORM(19)
	RET

// PICK ORs the five YMM words of one lane's table entry at ptr, masked by
// mask (all ones for the wanted entry, zero otherwise), into the lane's
// five result registers. Y28 is scratch.
#define PICK(ptr, mask, A0, A1, A2, A3, A4) \
	VPANDQ 0(ptr), mask, Y28; \
	VPORQ  Y28, A0, A0; \
	VPANDQ 32(ptr), mask, Y28; \
	VPORQ  Y28, A1, A1; \
	VPANDQ 64(ptr), mask, Y28; \
	VPORQ  Y28, A2, A2; \
	VPANDQ 96(ptr), mask, Y28; \
	VPORQ  Y28, A3, A3; \
	VPANDQ 128(ptr), mask, Y28; \
	VPORQ  Y28, A4, A4

// func sel52x2(dst, tab *pair52, n int, d1, d2 uint64)
// Requires: AVX512F, AVX512VL
//
// Register use across the entry loop:
//
//	SI   entry i's lane 1        R10  entry i's lane 2
//	CX   n                       AX   entry index i
//	R8   d1                      R9   d2
//	DX   scalar mask scratch
//	Y16-Y20  lane 1's result     Y21-Y25  lane 2's result
//	Y26, Y27 lane 1's and lane 2's mask for entry i
//
// The loop reads every entry whatever the digits; only the masks depend
// on them, and they come from SETEQ, not from a branch.
TEXT ·sel52x2(SB), NOSPLIT, $0-40
	MOVQ   tab+8(FP), SI
	MOVQ   n+16(FP), CX
	MOVQ   d1+24(FP), R8
	MOVQ   d2+32(FP), R9
	VPXORQ Y16, Y16, Y16
	VPXORQ Y17, Y17, Y17
	VPXORQ Y18, Y18, Y18
	VPXORQ Y19, Y19, Y19
	VPXORQ Y20, Y20, Y20
	VPXORQ Y21, Y21, Y21
	VPXORQ Y22, Y22, Y22
	VPXORQ Y23, Y23, Y23
	VPXORQ Y24, Y24, Y24
	VPXORQ Y25, Y25, Y25
	XORQ   AX, AX

entry:
	XORQ         DX, DX
	CMPQ         AX, R8
	SETEQ        DL
	NEGQ         DX
	VPBROADCASTQ DX, Y26
	XORQ         DX, DX
	CMPQ         AX, R9
	SETEQ        DL
	NEGQ         DX
	VPBROADCASTQ DX, Y27
	LEAQ         160(SI), R10
	PICK(SI, Y26, Y16, Y17, Y18, Y19, Y20)
	PICK(R10, Y27, Y21, Y22, Y23, Y24, Y25)
	ADDQ         $320, SI
	INCQ         AX
	CMPQ         AX, CX
	JB           entry

	MOVQ      dst+0(FP), DI
	VMOVDQU64 Y16, 0(DI)
	VMOVDQU64 Y17, 32(DI)
	VMOVDQU64 Y18, 64(DI)
	VMOVDQU64 Y19, 96(DI)
	VMOVDQU64 Y20, 128(DI)
	VMOVDQU64 Y21, 160(DI)
	VMOVDQU64 Y22, 192(DI)
	VMOVDQU64 Y23, 224(DI)
	VMOVDQU64 Y24, 256(DI)
	VMOVDQU64 Y25, 288(DI)
	VZEROUPPER
	RET
