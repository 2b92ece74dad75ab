//go:build !math_big_pure_go

#include "textflag.h"

// The 1024-bit (16-word) Montgomery product: the CIOS loop of
// montMulGeneric (mont.go) with both passes of every row unrolled into
// MULX/ADCX/ADOX and the final subtraction made branch-free. One call
// replaces the generic loop's 32 calls into math/big's addMulVVW.
//
// Register use across the row loop:
//
//	DI   base of the sliding accumulator window t[i:i+16] (on the stack)
//	SI   x            CX   m            BX   &y[i]
//	DX   the row multiplier: y[i], then q = t[i]·n0
//	R8   low product word     R9, R10  alternating high product words
//	AX   the x·y[i] pass's carry word
//	R11  rows left            R12  the accumulator's overflow bit c
//	R13  zero

// STEP adds src[j]·DX into t[j] (at DI) together with the previous
// step's high word hiIn, and leaves this step's high word in hiOut. CF
// carries the high-word chain, OF the accumulator chain.
#define STEP(src, j, hiIn, hiOut) \
	MULXQ (j*8)(src), R8, hiOut; \
	ADCXQ hiIn, R8; \
	ADOXQ (j*8)(DI), R8; \
	MOVQ  R8, (j*8)(DI)

// ROW adds src·DX into the 16-word window at DI and leaves the outgoing
// carry word in R10. It zeroes R13 and clears CF and OF first. The carry
// word cannot overflow: window + src·DX < 2^1024·2^64.
#define ROW(src) \
	XORQ  R13, R13; \
	MULXQ (src), R8, R9; \
	ADOXQ (DI), R8; \
	MOVQ  R8, (DI); \
	STEP(src, 1, R9, R10); \
	STEP(src, 2, R10, R9); \
	STEP(src, 3, R9, R10); \
	STEP(src, 4, R10, R9); \
	STEP(src, 5, R9, R10); \
	STEP(src, 6, R10, R9); \
	STEP(src, 7, R9, R10); \
	STEP(src, 8, R10, R9); \
	STEP(src, 9, R9, R10); \
	STEP(src, 10, R10, R9); \
	STEP(src, 11, R9, R10); \
	STEP(src, 12, R10, R9); \
	STEP(src, 13, R9, R10); \
	STEP(src, 14, R10, R9); \
	STEP(src, 15, R9, R10); \
	ADCXQ R13, R10; \
	ADOXQ R13, R10

// SUB computes z[j] = t[j] - m[j] - borrow, t at DI, z at AX.
#define SUB(j) \
	MOVQ (j*8)(DI), R8; \
	SBBQ (j*8)(CX), R8; \
	MOVQ R8, (j*8)(AX)

// KEEP puts t[j] back into z[j] when ZF is clear.
#define KEEP(j) \
	MOVQ    (j*8)(AX), R8; \
	CMOVQNE (j*8)(DI), R8; \
	MOVQ    R8, (j*8)(AX)

// func montMul1024(z, x, y, m *[16]big.Word, n0 big.Word)
// Requires: ADX, BMI2
TEXT ·montMul1024(SB), NOSPLIT, $256-40
	// The accumulator t[0:32] lives in the frame. Row i reads and
	// writes t[i:i+16] and then writes t[i+16], so only t[0:16] needs
	// zeroing.
	PXOR  X0, X0
	MOVOU X0, (SP)
	MOVOU X0, 16(SP)
	MOVOU X0, 32(SP)
	MOVOU X0, 48(SP)
	MOVOU X0, 64(SP)
	MOVOU X0, 80(SP)
	MOVOU X0, 96(SP)
	MOVOU X0, 112(SP)
	MOVQ  SP, DI
	MOVQ  x+8(FP), SI
	MOVQ  y+16(FP), BX
	MOVQ  m+24(FP), CX
	MOVQ  $16, R11
	XORQ  R12, R12

row:
	MOVQ  (BX), DX
	ROW(SI)
	MOVQ  R10, AX
	MOVQ  (DI), DX
	IMULQ n0+32(FP), DX
	ROW(CX)

	// t[i+16], c = c + (x·y[i] carry) + (q·m carry), two words wide.
	XORQ R9, R9
	ADDQ R12, AX
	ADCQ $0, R9
	ADDQ R10, AX
	ADCQ $0, R9
	MOVQ AX, 128(DI)
	MOVQ R9, R12
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ R11
	JNZ  row

	// The result t[16:32] (now at DI) with overflow bit c is < 2m.
	// Write t - m into z, then keep t instead when c - borrow != 0,
	// that is when c = 0 and t < m (c = 1 implies a borrow).
	MOVQ z+0(FP), AX
	MOVQ (DI), R8
	SUBQ (CX), R8
	MOVQ R8, (AX)
	SUB(1)
	SUB(2)
	SUB(3)
	SUB(4)
	SUB(5)
	SUB(6)
	SUB(7)
	SUB(8)
	SUB(9)
	SUB(10)
	SUB(11)
	SUB(12)
	SUB(13)
	SUB(14)
	SUB(15)
	SBBQ $0, R12
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	KEEP(8)
	KEEP(9)
	KEEP(10)
	KEEP(11)
	KEEP(12)
	KEEP(13)
	KEEP(14)
	KEEP(15)
	RET
