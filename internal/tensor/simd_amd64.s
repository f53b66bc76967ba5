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

// Element-wise passes (see elementwise.go). Each runs n/32 blocks of 32
// floats, four YMM registers a block; the Go wrapper runs the tail. Every
// lane does exactly the scalar loop's operations on its element, with the
// operands in the order gc emits for that loop (not inlined), so the result
// is bit for bit the loop's, down to which payload a NaN op NaN keeps (the
// first source's).

// func axpy32(dst *float32, alpha float32, x *float32, n int)
// dst[i] += alpha·x[i]: VMULPS x·alpha (x first, as MULSS), then VADDPS
// product + dst (the product first, as ADDSS), never FMA.
TEXT ·axpy32(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	VBROADCASTSS alpha+8(FP), Y15
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	SHRQ         $5, CX
	JZ           axdone

axloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y2, Y2
	VMULPS  Y15, Y3, Y3
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     axloop

axdone:
	VZEROUPPER
	RET

// func acc32(dst *float32, x *float32, n int)
// dst[i] += x[i]: VADDPS x + dst (x first, as ADDSS).
TEXT ·acc32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $5, CX
	JZ   acdone

acloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     acloop

acdone:
	VZEROUPPER
	RET

// func maxAbs32(x *float32, n int) float32
// The largest |x[i]|, from +0: 32 running maxima, each VMAXPS taking the
// candidate as its first source, so it returns candidate > max ? candidate
// : max and a NaN candidate keeps the max, as the scalar `a > m` does. The
// maxima never hold a NaN and carry no sign, so the reduction's order
// cannot change the result.
TEXT ·maxAbs32(SB), NOSPLIT, $0-20
	MOVQ     x+0(FP), SI
	MOVQ     n+8(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $1, Y15, Y15
	VXORPS   Y0, Y0, Y0
	VXORPS   Y1, Y1, Y1
	VXORPS   Y2, Y2, Y2
	VXORPS   Y3, Y3, Y3
	SHRQ     $5, CX
	JZ       mxreduce

mxloop:
	VANDPS (SI), Y15, Y4
	VANDPS 32(SI), Y15, Y5
	VANDPS 64(SI), Y15, Y6
	VANDPS 96(SI), Y15, Y7
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	ADDQ   $128, SI
	DECQ   CX
	JNZ    mxloop

mxreduce:
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// absMask32 leaves in R8 the 32-bit mask of |x[0:32]| >= t for the block
// at SI: bit j set when lane j compares true. Y15 holds 0x7fffffff and Y14
// the broadcast threshold; VCMPPS GE_OQ is false on NaN, as `>=` is.
#define absMask32 \
	VANDPS    (SI), Y15, Y0; \
	VANDPS    32(SI), Y15, Y1; \
	VANDPS    64(SI), Y15, Y2; \
	VANDPS    96(SI), Y15, Y3; \
	VCMPPS    $0x1d, Y14, Y0, Y0; \
	VCMPPS    $0x1d, Y14, Y1, Y1; \
	VCMPPS    $0x1d, Y14, Y2, Y2; \
	VCMPPS    $0x1d, Y14, Y3, Y3; \
	VMOVMSKPS Y0, R8; \
	VMOVMSKPS Y1, R9; \
	VMOVMSKPS Y2, R10; \
	VMOVMSKPS Y3, R11; \
	SHLL      $8, R9; \
	SHLL      $16, R10; \
	SHLL      $24, R11; \
	ORL       R9, R8; \
	ORL       R10, R8; \
	ORL       R11, R8

// func countAbsGE32(x *float32, n int, t float32) int
// The number of x[i] with |x[i]| >= t: POPCNT of each block's mask.
TEXT ·countAbsGE32(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS t+16(FP), Y14
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $1, Y15, Y15
	XORQ         AX, AX
	SHRQ         $5, CX
	JZ           cndone

cnloop:
	absMask32
	POPCNTL R8, R8
	ADDQ    R8, AX
	ADDQ    $128, SI
	DECQ    CX
	JNZ     cnloop

cndone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func gatherAbsGE32(idx *int32, val *float32, room int, x *float32, n int, t float32) (k, i int)
// Writes the index and value of each x[i] with |x[i]| >= t, ascending, to
// idx[k] and val[k], visiting only each block's set mask bits. It stops
// before a block whose selections would pass room and returns how many it
// wrote (k) and how many elements it read (i).
TEXT ·gatherAbsGE32(SB), NOSPLIT, $0-64
	MOVQ         idx+0(FP), DI
	MOVQ         val+8(FP), DX
	MOVQ         room+16(FP), R12
	MOVQ         x+24(FP), SI
	MOVQ         n+32(FP), CX
	VBROADCASTSS t+40(FP), Y14
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $1, Y15, Y15
	XORQ         AX, AX
	XORQ         BX, BX
	SHRQ         $5, CX
	JZ           gadone

galoop:
	absMask32
	TESTL   R8, R8
	JZ      ganext
	POPCNTL R8, R9
	ADDQ    AX, R9
	CMPQ    R9, R12
	JHI     gadone

gabit:
	BSFL R8, R9
	LEAL (BX)(R9*1), R10
	MOVL R10, (DI)(AX*4)
	MOVL (SI)(R9*4), R11
	MOVL R11, (DX)(AX*4)
	INCQ AX
	LEAL -1(R8), R9
	ANDL R9, R8
	JNZ  gabit

ganext:
	ADDQ $128, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  galoop

gadone:
	MOVQ AX, k+48(FP)
	MOVQ BX, i+56(FP)
	VZEROUPPER
	RET

// func maskPositive32(dst *float32, v *float32, y *float32, n int)
// dst[i] = y[i] > 0 ? v[i] : +0, on the bits: VCMPPS LT_OQ of +0 against
// y is all ones exactly where 0 < y, that is where 0 < bits(y) <=
// 0x7f800000 (keepPositive in elementwise.go), and VANDPS keeps v's bits there.
TEXT ·maskPositive32(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   v+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15
	SHRQ   $5, CX
	JZ     mpdone

mploop:
	VCMPPS  $0x11, (DX), Y15, Y0
	VCMPPS  $0x11, 32(DX), Y15, Y1
	VCMPPS  $0x11, 64(DX), Y15, Y2
	VCMPPS  $0x11, 96(DX), Y15, Y3
	VANDPS  (SI), Y0, Y0
	VANDPS  32(SI), Y1, Y1
	VANDPS  64(SI), Y2, Y2
	VANDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	DECQ    CX
	JNZ     mploop

mpdone:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 23 = POPCNT, bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	BTL  $23, R8
	JCC  no
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
