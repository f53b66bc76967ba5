//go:build amd64

package tensor

// cpuHasAVX2 reports whether the CPU and OS support AVX2 (CPUID + XGETBV).
func cpuHasAVX2() bool

// mmPanel32 computes dst[0:32] = Σ_p a[p]·pb[p*32+0:32] with four YMM
// accumulator chains in ascending-p order (VMULPS+VADDPS, never FMA), so the
// result is bit-identical to the scalar kernels for finite operands. dst, a,
// and pb must point at ≥32, ≥k, and ≥k*32 valid floats respectively.
//
//go:noescape
func mmPanel32(dst *float32, a *float32, pb *float32, k int)

// mmTile4x8 computes dst[r*ldc+l] = Σ_p a[r*lda+p]·pb[p*8+l] for four
// rows r and 8 lanes l, one YMM chain per row in ascending-p order
// (VMULPS+VADDPS, never FMA). dst and a must point at four rows of ≥8 and
// ≥k valid floats, ldc and lda apart; pb at ≥k*8 floats.
//
//go:noescape
func mmTile4x8(dst *float32, ldc int, a *float32, lda int, pb *float32, k int)

// useWideKernel gates the AVX2 matmul kernels: the 32-lane panel and the
// 4×8 narrow tile.
var useWideKernel = cpuHasAVX2()
