//go:build !amd64

package tensor

// useWideKernel gates the AVX2 matmul kernels; other architectures use the
// portable 8-wide kernel.
const useWideKernel = false

// mmPanel32 is never called when useWideKernel is false.
func mmPanel32(dst *float32, a *float32, pb *float32, k int) {
	panic("tensor: mmPanel32 without SIMD support")
}

// mmTile4x8 is never called when useWideKernel is false.
func mmTile4x8(dst *float32, ldc int, a *float32, lda int, pb *float32, k int) {
	panic("tensor: mmTile4x8 without SIMD support")
}
