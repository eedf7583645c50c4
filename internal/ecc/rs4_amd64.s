#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// STEP runs one 8-byte step of one span: x = w0 XOR the next data word
// big-endian, then the register (w0,w1,w2,w3) in Y becomes
// (w1,w2,w3,0) XOR tab[7][x>>56] … XOR tab[0][byte(x)]. Table k sits at
// k·8192(AX) and row f at f·32 within it, so byte k's row offset is
// (x >> (8k−5)) & 0x1fe0: one shift and one mask straight from x, the
// eight offsets independent of each other. The rows go into two
// partial accumulators, A (the shifted register, even tables) and B
// (odd tables), so no XOR waits on more than four others.
//   src: the data word; R: x; Y, X: the span's register in its YMM and
//   XMM names; A, B: spare YMM registers. Y15 holds zero.
#define STEP(src, R, Y, X, A, B) \
	MOVQ     src, R;                 \
	BSWAPQ   R;                      \
	VMOVQ    X, R12;                 \
	XORQ     R12, R;                 \
	VPERMQ   $0x39, Y, A;            \
	VPBLENDD $0xc0, Y15, A, A;       \
	MOVBQZX  R, R12;                 \
	SHLQ     $5, R12;                \
	VPXOR    (AX)(R12*1), A, A;      \
	MOVQ     R, R13;                 \
	SHRQ     $3, R13;                \
	ANDQ     $0x1fe0, R13;           \
	VMOVDQU  8192(AX)(R13*1), B;     \
	MOVQ     R, DI;                  \
	SHRQ     $11, DI;                \
	ANDQ     $0x1fe0, DI;            \
	VPXOR    16384(AX)(DI*1), A, A;  \
	MOVQ     R, R12;                 \
	SHRQ     $19, R12;               \
	ANDQ     $0x1fe0, R12;           \
	VPXOR    24576(AX)(R12*1), B, B; \
	MOVQ     R, R13;                 \
	SHRQ     $27, R13;               \
	ANDQ     $0x1fe0, R13;           \
	VPXOR    32768(AX)(R13*1), A, A; \
	MOVQ     R, DI;                  \
	SHRQ     $35, DI;                \
	ANDQ     $0x1fe0, DI;            \
	VPXOR    40960(AX)(DI*1), B, B;  \
	MOVQ     R, R12;                 \
	SHRQ     $43, R12;               \
	ANDQ     $0x1fe0, R12;           \
	VPXOR    49152(AX)(R12*1), A, A; \
	SHRQ     $51, R;                 \
	ANDQ     $0x1fe0, R;             \
	VPXOR    57344(AX)(R*1), B, B;   \
	VPXOR    A, B, Y

// bswapMask reverses the bytes of each quadword under VPSHUFB, turning
// a register's words into its remainder bytes, big-endian.
DATA bswapMask<>+0(SB)/8, $0x0001020304050607
DATA bswapMask<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+16(SB)/8, $0x0001020304050607
DATA bswapMask<>+24(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapMask<>(SB), RODATA|NOPTR, $32

// func remainder4AVX2(tab *sliceTab, heads *[4][8]byte, p *byte, stride, words int, rems *[4][32]byte)
//
// AX holds the tables, SI the heads and then the data of span 0, BX the
// stride, DX three strides and CX the words left. Span k keeps x in
// R8+k and its register in Yk, with Y(4+2k) and Y(5+2k) as its partial
// accumulators; R12, R13 and DI take row offsets.
TEXT ·remainder4AVX2(SB), NOSPLIT, $0-48
	MOVQ  tab+0(FP), AX
	MOVQ  heads+8(FP), SI
	MOVQ  stride+24(FP), BX
	MOVQ  words+32(FP), CX
	LEAQ  (BX)(BX*2), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y15, Y15, Y15

	// The head words, from zero registers.
	STEP((SI), R8, Y0, X0, Y4, Y5)
	STEP(8(SI), R9, Y1, X1, Y6, Y7)
	STEP(16(SI), R10, Y2, X2, Y8, Y9)
	STEP(24(SI), R11, Y3, X3, Y10, Y11)
	MOVQ  p+16(FP), SI
	TESTQ CX, CX
	JZ    done

loop:
	STEP((SI), R8, Y0, X0, Y4, Y5)
	STEP((SI)(BX*1), R9, Y1, X1, Y6, Y7)
	STEP((SI)(BX*2), R10, Y2, X2, Y8, Y9)
	STEP((SI)(DX*1), R11, Y3, X3, Y10, Y11)
	ADDQ $8, SI
	DECQ CX
	JNZ  loop

done:
	MOVQ    rems+40(FP), DI
	VMOVDQU bswapMask<>(SB), Y4
	VPSHUFB Y4, Y0, Y0
	VPSHUFB Y4, Y1, Y1
	VPSHUFB Y4, Y2, Y2
	VPSHUFB Y4, Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET
