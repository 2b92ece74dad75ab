//go:build !math_big_pure_go

#include "textflag.h"

// Two independent almost-Montgomery products over one shared modulus in
// radix 2^52, after Gueron and Krasnov's AVX-512 IFMA method: each of the
// 20 rows adds a·b_i and q_i·m into a 20-limb vector accumulator per lane
// with VPMADD52LUQ/VPMADD52HUQ and shifts it down one limb. Operands are
// 20 limbs of 52 bits below 2m with R' = 2^1040; since 4m < R' the result
// is below 2m as well and needs no final subtraction.
//
// Each 20-limb value lives in two ZMM registers and one YMM register:
// limbs 0-7, 8-15 and 16-19. A row is 12 multiply-adds per lane, each
// operand register against a broadcast b_i (read from memory by the
// instruction itself) or q_i. The 256-bit operations zero bits 256-511
// of their ZMM register, so a YMM register read as ZMM holds its four
// limbs and then zeros.
//
// Register use across the row loop:
//
//	SI   a1's limb 0             DI   a2's limb 0
//	CX   m's limb 0              R11  row index i
//	BX   b1                      R8   b2
//	R9   lane 1's limb 0, exact  R10  lane 2's limb 0, exact
//	AX, DX, R12, R13  scalar scratch
//	Z16, Z17, Y18  lane 1's accumulator (its limb 0 lives in R9)
//	Z19, Z20, Y21  lane 2's accumulator (its limb 0 lives in R10)
//	Z22, Z23, Y24  a1                Z25, Z26, Y27  a2
//	Z28, Z29, Y30  m                 Z31  zero
//	Z0, Z1         lane 1's and lane 2's q_i broadcast
//
// Every accumulator limb takes at most four 52-bit terms per row, so 20
// rows stay below 2^59 and never overflow their 64 bits. The carry pass
// after the loop (CARRY2) reuses Z22-Z29 and K1-K7 and keeps the whole
// result in registers until its one store per limb. Nothing in this
// file touches X15, and every entry ends with VZEROUPPER.

// SCALAR computes one lane's row multiplier q_i = (acc + a_0·b_i)·k0 mod
// 2^52 and broadcasts it into qv. It leaves the lane's exact limb 0
// shifted down one limb: acc = (acc + a_0·b_i + q_i·m_0) / 2^52, a
// 128-bit sum held in R12:acc.
#define SCALAR(bptr, a0, acc, qv) \
	MOVQ         (bptr)(R11*8), DX; \
	MULXQ        a0, R13, R12; \
	ADDQ         R13, acc; \
	ADCQ         $0, R12; \
	MOVQ         k0+56(FP), R13; \
	IMULQ        acc, R13; \
	MOVQ         $0xfffffffffffff, AX; \
	ANDQ         AX, R13; \
	VPBROADCASTQ R13, qv; \
	MOVQ         R13, DX; \
	MULXQ        CX, R13, AX; \
	ADDQ         R13, acc; \
	ADCQ         AX, R12; \
	SHRQ         $52, acc; \
	SHLQ         $12, R12; \
	ORQ          R12, acc

// MADD adds the low (op = VPMADD52LUQ) or high (op = VPMADD52HUQ) 52-bit
// halves of a·b_i, b_i broadcast from bptr, and of m·q_i (qv, and yq its
// low half) into the lane's accumulator.
#define MADD(op, bptr, qv, yq, A0, A1, A2, B0, B1, B2) \
	op.BCST (bptr)(R11*8), B0, A0; \
	op.BCST (bptr)(R11*8), B1, A1; \
	op.BCST (bptr)(R11*8), B2, A2; \
	op      qv, Z28, A0; \
	op      qv, Z29, A1; \
	op      yq, Y30, A2

// SHIFT moves the lane's accumulator down one limb, zero-filling limb 19;
// ZA2 is A2 read as ZMM. The limb it drops is limb 0, whose exact value
// the lane keeps in a GPR.
#define SHIFT(A0, A1, A2, ZA2) \
	VALIGNQ $1, A0, A1, A0; \
	VALIGNQ $1, A1, ZA2, A1; \
	VALIGNQ $1, A2, Y31, A2

// CARRY carries one lane's accumulator (A0, A1 and A2, with the exact
// limb 0 in acc) into limbs of exactly 52 bits, in registers. ZA2 is A2
// read as ZMM, and YC2 is the scratch C2 read as YMM. It needs Z28 =
// 2^52 - 1, Z29 = 1 and Z31 = 0 in every limb, K1 = 1, and C0, C1 and C2
// as scratch; it leaves AX, DX and R12 clobbered.
//
// Pass 1 adds each limb's bits above 52 into the next limb: VALIGNQ $7
// moves the carries up one limb, across register boundaries too. Each
// limb is then at most 2^52 - 1 + 2^12 - 1, so it carries at most one.
// Pass 2 finds in 20-bit masks the limbs that carry one (g: above 2^52 -
// 1) and the limbs that pass a carry on (p: equal to it). The limbs that
// take one are then ((g<<1) + p) ^ p, like a binary sum. The carry out
// of limb 19 is dropped in both passes, so the result is the input
// mod 2^1040; the product is below 2m < 2^1040, so nothing is lost.
#define CARRY(acc, A0, A1, A2, ZA2, C0, C1, C2, YC2) \
	VPBROADCASTQ acc, K1, A0; \
	VPSRLQ       $52, A0, C0; \
	VPSRLQ       $52, A1, C1; \
	VPSRLQ       $52, ZA2, C2; \
	VPANDQ       Z28, A0, A0; \
	VPANDQ       Z28, A1, A1; \
	VPANDQ       Y28, A2, A2; \
	VALIGNQ      $7, C1, C2, C2; \
	VALIGNQ      $7, C0, C1, C1; \
	VALIGNQ      $7, Z31, C0, C0; \
	VPADDQ       C0, A0, A0; \
	VPADDQ       C1, A1, A1; \
	VPADDQ       YC2, A2, A2; \
	VPCMPUQ      $6, Z28, A0, K2; \
	VPCMPUQ      $6, Z28, A1, K3; \
	VPCMPUQ      $6, Y28, A2, K4; \
	VPCMPUQ      $0, Z28, A0, K5; \
	VPCMPUQ      $0, Z28, A1, K6; \
	VPCMPUQ      $0, Y28, A2, K7; \
	KMOVW        K2, AX; \
	KMOVW        K3, DX; \
	SHLQ         $8, DX; \
	ORQ          DX, AX; \
	KMOVW        K4, DX; \
	SHLQ         $16, DX; \
	ORQ          DX, AX; \
	KMOVW        K5, R12; \
	KMOVW        K6, DX; \
	SHLQ         $8, DX; \
	ORQ          DX, R12; \
	KMOVW        K7, DX; \
	SHLQ         $16, DX; \
	ORQ          DX, R12; \
	LEAQ         (R12)(AX*2), AX; \
	XORQ         R12, AX; \
	KMOVW        AX, K2; \
	SHRQ         $8, AX; \
	KMOVW        AX, K3; \
	SHRQ         $8, AX; \
	KMOVW        AX, K4; \
	VPADDQ       Z29, A0, K2, A0; \
	VPADDQ       Z29, A1, K3, A1; \
	VPADDQ       Y29, A2, K4, A2; \
	VPANDQ       Z28, A0, A0; \
	VPANDQ       Z28, A1, A1; \
	VPANDQ       Y28, A2, A2

// CARRY2 runs CARRY on both lanes, lane 1 in Z16, Z17, Y18 with limb 0
// in R9 and lane 2 in Z19, Z20, Y21 with limb 0 in R10, and writes them
// to r1 and r2, each once.
#define CARRY2(r1, r2) \
	VPTERNLOGQ $0xff, Z29, Z29, Z29; \
	VPSRLQ     $12, Z29, Z28; \
	VPSRLQ     $63, Z29, Z29; \
	VPXORQ     Z31, Z31, Z31; \
	MOVL       $1, AX; \
	KMOVW      AX, K1; \
	CARRY(R9, Z16, Z17, Y18, Z18, Z22, Z23, Z24, Y24); \
	CARRY(R10, Z19, Z20, Y21, Z21, Z25, Z26, Z27, Y27); \
	VMOVDQU64  Z16, 0(r1); \
	VMOVDQU64  Z17, 64(r1); \
	VMOVDQU64  Y18, 128(r1); \
	VMOVDQU64  Z19, 0(r2); \
	VMOVDQU64  Z20, 64(r2); \
	VMOVDQU64  Y21, 128(r2)

// func amm52x20x2(r1, a1, b1, r2, a2, b2, m *[20]uint64, k0 uint64)
// Requires: AVX512F, AVX512VL, AVX512IFMA, BMI2
TEXT ·amm52x20x2(SB), NOSPLIT, $0-64
	MOVQ      a1+8(FP), SI
	MOVQ      b1+16(FP), BX
	MOVQ      a2+32(FP), DI
	MOVQ      b2+40(FP), R8
	MOVQ      m+48(FP), CX
	VMOVDQU64 0(SI), Z22
	VMOVDQU64 64(SI), Z23
	VMOVDQU64 128(SI), Y24
	VMOVDQU64 0(DI), Z25
	VMOVDQU64 64(DI), Z26
	VMOVDQU64 128(DI), Y27
	VMOVDQU64 0(CX), Z28
	VMOVDQU64 64(CX), Z29
	VMOVDQU64 128(CX), Y30
	MOVQ      (SI), SI
	MOVQ      (DI), DI
	MOVQ      (CX), CX
	XORQ      R9, R9
	XORQ      R10, R10
	XORQ      R11, R11
	VPXORQ    Z16, Z16, Z16
	VPXORQ    Z17, Z17, Z17
	VPXORQ    Y18, Y18, Y18
	VPXORQ    Z19, Z19, Z19
	VPXORQ    Z20, Z20, Z20
	VPXORQ    Y21, Y21, Y21
	VPXORQ    Y31, Y31, Y31

row:
	SCALAR(BX, SI, R9, Z0)
	SCALAR(R8, DI, R10, Z1)
	MADD(VPMADD52LUQ, BX, Z0, Y0, Z16, Z17, Y18, Z22, Z23, Y24)
	MADD(VPMADD52LUQ, R8, Z1, Y1, Z19, Z20, Y21, Z25, Z26, Y27)
	SHIFT(Z16, Z17, Y18, Z18)
	SHIFT(Z19, Z20, Y21, Z21)

	// The new limb 0 of each lane: its shifted-in vector value joins the
	// carry already in the GPR. The high halves added next belong to
	// limb 0 too, but the scalar shift has already counted them.
	VMOVQ X16, R13
	ADDQ  R13, R9
	VMOVQ X19, R13
	ADDQ  R13, R10
	MADD(VPMADD52HUQ, BX, Z0, Y0, Z16, Z17, Y18, Z22, Z23, Y24)
	MADD(VPMADD52HUQ, R8, Z1, Y1, Z19, Z20, Y21, Z25, Z26, Y27)
	INCQ R11
	CMPQ R11, $20
	JB   row

	MOVQ r1+0(FP), BX
	MOVQ r2+24(FP), R8
	CARRY2(BX, R8)
	VZEROUPPER
	RET

// func norm52x2(r1, x1, r2, x2 *[20]uint64)
// Requires: AVX512F, AVX512VL
//
// norm52x2 runs amm52x20x2's carry pass alone on two inputs of 20 limbs
// of 64 bits: x1's limb 0 enters through R9 and x2's through R10, as the
// kernel's exact limbs do.
TEXT ·norm52x2(SB), NOSPLIT, $0-32
	MOVQ      r1+0(FP), BX
	MOVQ      x1+8(FP), SI
	MOVQ      r2+16(FP), R8
	MOVQ      x2+24(FP), DI
	VMOVDQU64 0(SI), Z16
	VMOVDQU64 64(SI), Z17
	VMOVDQU64 128(SI), Y18
	VMOVDQU64 0(DI), Z19
	VMOVDQU64 64(DI), Z20
	VMOVDQU64 128(DI), Y21
	MOVQ      (SI), R9
	MOVQ      (DI), R10
	CARRY2(BX, R8)
	VZEROUPPER
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
