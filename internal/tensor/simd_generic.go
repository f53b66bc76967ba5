//go:build !amd64

package tensor

// useWideKernel gates the AVX2 kernels; other architectures use the
// portable 8-wide matmul kernel and the scalar element-wise loops.
const useWideKernel = false

// mmPanel32 is never called when useWideKernel is false.
func mmPanel32(dst *float32, a *float32, pb *float32, k int) {
	panic("tensor: mmPanel32 without SIMD support")
}

// mmTile4x8 is never called when useWideKernel is false.
func mmTile4x8(dst *float32, ldc int, a *float32, lda int, pb *float32, k int) {
	panic("tensor: mmTile4x8 without SIMD support")
}

// The element-wise kernels are never called when useWideKernel is false.

func axpy32(dst *float32, alpha float32, x *float32, n int) {
	panic("tensor: axpy32 without SIMD support")
}

func acc32(dst *float32, x *float32, n int) {
	panic("tensor: acc32 without SIMD support")
}

func maxAbs32(x *float32, n int) float32 {
	panic("tensor: maxAbs32 without SIMD support")
}

func countAbsGE32(x *float32, n int, t float32) int {
	panic("tensor: countAbsGE32 without SIMD support")
}

func gatherAbsGE32(idx *int32, val *float32, room int, x *float32, n int, t float32) (k, i int) {
	panic("tensor: gatherAbsGE32 without SIMD support")
}

func maskPositive32(dst *float32, v *float32, y *float32, n int) {
	panic("tensor: maskPositive32 without SIMD support")
}
