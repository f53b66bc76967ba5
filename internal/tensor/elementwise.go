package tensor

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Element-wise passes: the SGD step and a peer's dense update (Axpy,
// AxpyLE), the dW accumulation (Tensor.Add), Max-N's max-|g| and threshold
// scans, and ReLU's mask. Under AVX2 each runs its whole 32-float blocks in
// simd_amd64.s and its tail in the loop here; on other architectures the
// loop is the whole pass. A kernel does per element what its loop does, in
// the operand order gc emits for it, so the two agree bit for bit
// (DESIGN.md §9, TestElementwiseKernelsBitExact).

// Axpy adds alpha·x to dst element-wise. x must be as long as dst.
func Axpy(dst []float32, alpha float32, x []float32) {
	if len(x) != len(dst) {
		panic("tensor: Axpy length mismatch")
	}
	if useWideKernel && len(dst) >= 32 {
		n := len(dst) &^ 31
		axpy32(&dst[0], alpha, &x[0], n)
		dst, x = dst[n:], x[n:]
	}
	for i, v := range x {
		dst[i] += float32(alpha * v)
	}
}

// AxpyLE is Axpy over len(dst) little-endian IEEE-754 words at any byte
// offset: a received frame's dense value block, applied where it lies. The
// AVX2 kernel loads the words in place (unaligned loads, on a little-endian
// host); the portable loop and the tail assemble each word from its bytes.
func AxpyLE(dst []float32, alpha float32, le []byte) {
	if len(le) != 4*len(dst) {
		panic("tensor: AxpyLE length mismatch")
	}
	if useWideKernel && len(dst) >= 32 {
		n := len(dst) &^ 31
		axpy32(&dst[0], alpha, (*float32)(unsafe.Pointer(&le[0])), n)
		dst, le = dst[n:], le[4*n:]
	}
	for i := range dst {
		dst[i] += float32(alpha * math.Float32frombits(binary.LittleEndian.Uint32(le[4*i:])))
	}
}

// acc adds x to dst element-wise; x is as long as dst.
func acc(dst, x []float32) {
	if useWideKernel && len(dst) >= 32 {
		n := len(dst) &^ 31
		acc32(&dst[0], &x[0], n)
		dst, x = dst[n:], x[n:]
	}
	for i, v := range x {
		dst[i] += v
	}
}

// abs32 clears the sign bit. A sign test instead mispredicts on every other
// element of a zero-centred gradient.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// maxAbs returns the largest |x[i]| (+0 for an empty x); a NaN is never
// larger.
func maxAbs(x []float32) float32 {
	var m float32
	if useWideKernel && len(x) >= 32 {
		n := len(x) &^ 31
		m = maxAbs32(&x[0], n)
		x = x[n:]
	}
	for _, v := range x {
		if a := abs32(v); a > m {
			m = a
		}
	}
	return m
}

// CountAbsAtLeast returns how many x[i] have |x[i]| >= t. A NaN never
// counts.
func CountAbsAtLeast(x []float32, t float32) int {
	count := 0
	if useWideKernel && len(x) >= 32 {
		n := len(x) &^ 31
		count = countAbsGE32(&x[0], n, t)
		x = x[n:]
	}
	for _, v := range x {
		if abs32(v) >= t {
			count++
		}
	}
	return count
}

// GatherAbsAtLeast writes the index and value of every x[i] with
// |x[i]| >= t to idx and val, in ascending i, and returns how many it
// wrote. idx and val must have room for CountAbsAtLeast(x, t) of them; it
// panics, having written none past either, when they have not.
func GatherAbsAtLeast(idx []int32, val []float32, x []float32, t float32) int {
	k, i := 0, 0
	if useWideKernel && len(x) >= 32 && len(idx) > 0 && len(val) > 0 {
		k, i = gatherAbsGE32(&idx[0], &val[0], min(len(idx), len(val)), &x[0], len(x)&^31, t)
	}
	for ; i < len(x); i++ {
		if v := x[i]; abs32(v) >= t {
			idx[k] = int32(i)
			val[k] = v
			k++
		}
	}
	return k
}

// KeepPositive sets dst[i] to v[i] where y[i] > 0 and to +0 elsewhere (±0,
// negatives, NaN). ReLU's forward is KeepPositive(y, x, x), its backward
// KeepPositive(dx, dout, y). v and y must be as long as dst.
func KeepPositive(dst, v, y []float32) {
	if len(v) != len(dst) || len(y) != len(dst) {
		panic("tensor: KeepPositive length mismatch")
	}
	if useWideKernel && len(dst) >= 32 {
		n := len(dst) &^ 31
		maskPositive32(&dst[0], &v[0], &y[0], n)
		dst, v, y = dst[n:], v[n:], y[n:]
	}
	for i, b := range v {
		dst[i] = math.Float32frombits(math.Float32bits(b) & keepPositive(math.Float32bits(y[i])))
	}
}

// keepPositive is all ones when the float with bits b is > 0 (positive
// finite or +Inf) and zero for ±0, negatives and NaN: b-1 (mod 2³²) lies
// below +Inf's bits exactly then. Computed, not branched: about half of all
// activations are negative, and a compare-and-branch mispredicts on every
// other one.
func keepPositive(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7f800000) >> 63)
}
