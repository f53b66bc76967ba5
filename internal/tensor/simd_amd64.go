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

// The element-wise kernels below each run n/32 blocks of 32 floats (the
// caller runs the tail) and do per element exactly what the scalar loop of
// their wrapper in elementwise.go does. Pointers must reach n valid floats.

// axpy32 runs dst[i] += alpha·x[i].
//
//go:noescape
func axpy32(dst *float32, alpha float32, x *float32, n int)

// acc32 runs dst[i] += x[i].
//
//go:noescape
func acc32(dst *float32, x *float32, n int)

// maxAbs32 returns the largest |x[i]|, +0 for none.
//
//go:noescape
func maxAbs32(x *float32, n int) float32

// countAbsGE32 returns how many x[i] have |x[i]| >= t.
//
//go:noescape
func countAbsGE32(x *float32, n int, t float32) int

// gatherAbsGE32 writes the index and value of each x[i] with |x[i]| >= t
// to idx[k] and val[k] in ascending i, stopping before a block whose
// selections would take k past room; it returns the count written and the
// elements read (a multiple of 32).
//
//go:noescape
func gatherAbsGE32(idx *int32, val *float32, room int, x *float32, n int, t float32) (k, i int)

// maskPositive32 runs dst[i] = v[i] where y[i] > 0, else +0.
//
//go:noescape
func maskPositive32(dst *float32, v *float32, y *float32, n int)

// useWideKernel gates the AVX2 kernels: the matmul engine's 32-lane panel
// and 4×8 narrow tile, and the element-wise passes (POPCNT is checked too).
var useWideKernel = cpuHasAVX2()
