//go:build amd64 && !purego

#include "textflag.h"

// func amm52x40(z, t, x, y, m *big.Word, k0 big.Word)
//
// z = x·y·R⁻¹ mod m for R = 2^2080, on operands of 40 digits of 52 bits
// (digits_amd64.go): the word-by-word Montgomery loop of Mul with 52-bit
// digits in the 64-bit lanes of five ZMM registers, after Gueron and
// Krasnov's almost Montgomery multiplication on VPMADD52LUQ/VPMADD52HUQ and
// OpenSSL's rsaz-*-avx512. A lane collects the low halves of its digit's
// products, and after the shift down a digit the high halves of the
// products of the digit below, without carrying: over 40 rows a lane gains
// less than 160·2^52 < 2^60. Digit 0 is kept exactly in a register (acc),
// from MULX products, so that the next row's q waits only for the shift and
// not for the high halves; lane 0 of the accumulator is never read
// otherwise. A scalar pass then carries the lanes, acc as digit 0, into
// digits in z, the difference from m into t, and the result is t when it
// did not borrow (the value was m or more), z otherwise, by a mask.
//
// Registers: Z0-Z4 the accumulator, Z5-Z9 x, Z10 y[i], Z11 the row's
// multiple q of m, Z12 zero, m read from memory (DI); R8 acc, R9 k0 =
// -m⁻¹ mod 2^52, R10 m's digit 0, R11 the digit mask, R13 x's digit 0, BX
// y, CX the rows left. Nothing touches Z16-Z31, which VZEROUPPER does not
// clear, so the upper state is clean again on return.
TEXT ·amm52x40(SB), NOSPLIT, $0-48
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), BX
	MOVQ m+32(FP), DI
	MOVQ k0+40(FP), R9
	VMOVDQU64 0(SI), Z5
	VMOVDQU64 64(SI), Z6
	VMOVDQU64 128(SI), Z7
	VMOVDQU64 192(SI), Z8
	VMOVDQU64 256(SI), Z9
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z12, Z12, Z12
	MOVQ 0(SI), R13
	MOVQ 0(DI), R10
	MOVQ $0xfffffffffffff, R11
	XORQ R8, R8
	MOVQ $40, CX

row:
	// acc + x[0]·y[i] + q·m[0] in R12:R8, with q = (acc + x[0]·y[i])·k0
	// mod 2^52, which makes its low 52 bits zero; acc becomes the rest.
	MOVQ (BX), DX
	VPBROADCASTQ DX, Z10
	MULXQ R13, AX, R12
	ADDQ AX, R8
	ADCQ $0, R12
	MOVQ R8, DX
	IMULQ R9, DX
	ANDQ R11, DX
	VPBROADCASTQ DX, Z11
	MULXQ R10, AX, SI
	ADDQ AX, R8
	ADCQ SI, R12
	SHRQ $52, R8
	SHLQ $12, R12
	ORQ R12, R8

	// A += lo(x·y[i]) + lo(q·m), then shift A down a digit: lane 0 is
	// spent, and acc takes the new lane 0.
	VPMADD52LUQ Z10, Z5, Z0
	VPMADD52LUQ Z10, Z6, Z1
	VPMADD52LUQ Z10, Z7, Z2
	VPMADD52LUQ Z10, Z8, Z3
	VPMADD52LUQ Z10, Z9, Z4
	VPMADD52LUQ 0(DI), Z11, Z0
	VPMADD52LUQ 64(DI), Z11, Z1
	VPMADD52LUQ 128(DI), Z11, Z2
	VPMADD52LUQ 192(DI), Z11, Z3
	VPMADD52LUQ 256(DI), Z11, Z4
	VALIGNQ $1, Z0, Z1, Z0
	VALIGNQ $1, Z1, Z2, Z1
	VALIGNQ $1, Z2, Z3, Z2
	VALIGNQ $1, Z3, Z4, Z3
	VALIGNQ $1, Z4, Z12, Z4
	VMOVQ X0, AX
	ADDQ AX, R8

	// The high halves land a digit up: after the shift, in the same lane
	// (lane 0's are in acc already).
	VPMADD52HUQ Z10, Z5, Z0
	VPMADD52HUQ Z10, Z6, Z1
	VPMADD52HUQ Z10, Z7, Z2
	VPMADD52HUQ Z10, Z8, Z3
	VPMADD52HUQ Z10, Z9, Z4
	VPMADD52HUQ 0(DI), Z11, Z0
	VPMADD52HUQ 64(DI), Z11, Z1
	VPMADD52HUQ 128(DI), Z11, Z2
	VPMADD52HUQ 192(DI), Z11, Z3
	VPMADD52HUQ 256(DI), Z11, Z4

	ADDQ $8, BX
	DECQ CX
	JNZ row

	// Carry the lanes, with acc as digit 0, into digits in z (R8 the
	// carry), and subtract m with a borrow (R12) into t. The value is
	// below 2m < 2^2080, so nothing carries out of digit 39.
	MOVQ z+0(FP), SI
	MOVQ t+8(FP), BX
	VMOVDQU64 Z0, 0(SI)
	VMOVDQU64 Z1, 64(SI)
	VMOVDQU64 Z2, 128(SI)
	VMOVDQU64 Z3, 192(SI)
	VMOVDQU64 Z4, 256(SI)
	MOVQ R8, 0(SI)
	XORQ R8, R8
	XORQ R12, R12
	XORQ CX, CX

norm:
	MOVQ (SI)(CX*8), AX
	ADDQ R8, AX
	MOVQ AX, R8
	SHRQ $52, R8
	ANDQ R11, AX
	MOVQ AX, (SI)(CX*8)
	SUBQ (DI)(CX*8), AX
	SUBQ R12, AX
	MOVQ AX, R12
	SHRQ $63, R12
	ANDQ R11, AX
	MOVQ AX, (BX)(CX*8)
	INCQ CX
	CMPQ CX, $40
	JNE norm

	// No borrow: the value was m or more, and z takes t. The mask is all
	// ones then and zero otherwise; z ^= mask & (z ^ t).
	DECQ R12
	VPBROADCASTQ R12, Z12
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VPXORQ 0(BX), Z0, Z5
	VPXORQ 64(BX), Z1, Z6
	VPXORQ 128(BX), Z2, Z7
	VPXORQ 192(BX), Z3, Z8
	VPXORQ 256(BX), Z4, Z9
	VPANDQ Z12, Z5, Z5
	VPANDQ Z12, Z6, Z6
	VPANDQ Z12, Z7, Z7
	VPANDQ Z12, Z8, Z8
	VPANDQ Z12, Z9, Z9
	VPXORQ Z5, Z0, Z0
	VPXORQ Z6, Z1, Z1
	VPXORQ Z7, Z2, Z2
	VPXORQ Z8, Z3, Z3
	VPXORQ Z9, Z4, Z4
	VMOVDQU64 Z0, 0(SI)
	VMOVDQU64 Z1, 64(SI)
	VMOVDQU64 Z2, 128(SI)
	VMOVDQU64 Z3, 192(SI)
	VMOVDQU64 Z4, 256(SI)
	VZEROUPPER
	RET
