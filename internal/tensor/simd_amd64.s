// AVX2 micro-kernel for the packed matmul engine (see kernels.go).
//
// mmPanel32 computes 32 output-row elements at once: dst[l] = sum over p of
// a[p] * pb[p*32+l], with four YMM accumulator chains. Each chain performs,
// per p, one single-precision multiply followed by one single-precision add
// (VMULPS + VADDPS, never FMA), so every lane's float32 rounding sequence is
// exactly the scalar `s += a[p] * b[p]` chain in ascending p — bit-identical
// to the pure-Go kernels for finite operands.

#include "textflag.h"

// func mmPanel32(dst *float32, a *float32, pb *float32, k int)
TEXT ·mmPanel32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), BX
	MOVQ a+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ k+24(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JZ    store

loop:
	VBROADCASTSS (SI), Y4
	VMULPS (DI), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(DI), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(DI), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(DI), Y4, Y8
	VADDPS Y8, Y3, Y3
	ADDQ   $4, SI
	ADDQ   $128, DI
	DECQ   CX
	JNZ    loop

store:
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, 64(BX)
	VMOVUPS Y3, 96(BX)
	VZEROUPPER
	RET

// mmTile4x8 is the narrow tile (see kernels.go): four rows of a against one
// packed 8-lane panel, dst[r*ldc+l] = sum over p of a[r*lda+p] * pb[p*8+l]
// for r = 0..3, l = 0..7. Each row is its own YMM chain, one VMULPS + one
// VADDPS per p in ascending p (never FMA), so every lane rounds exactly as
// the scalar chain does.
//
// func mmTile4x8(dst *float32, ldc int, a *float32, lda int, pb *float32, k int)
TEXT ·mmTile4x8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), BX
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ pb+32(FP), DI
	MOVQ k+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	XORQ  AX, AX
	TESTQ CX, CX
	JZ    t4store

t4loop:
	VMOVUPS      (DI), Y4
	VBROADCASTSS (SI)(AX*4), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (R10)(AX*4), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (R11)(AX*4), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (R12)(AX*4), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $32, DI
	INCQ         AX
	CMPQ         AX, CX
	JNE          t4loop

t4store:
	VMOVUPS Y0, (BX)
	ADDQ    R8, BX
	VMOVUPS Y1, (BX)
	ADDQ    R8, BX
	VMOVUPS Y2, (BX)
	ADDQ    R8, BX
	VMOVUPS Y3, (BX)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	BTL  $27, R8
	JCC  no
	BTL  $28, R8
	JCC  no

	// XCR0 bits 1..2: XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// CPUID leaf 7 subleaf 0: EBX bit 5 = AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
