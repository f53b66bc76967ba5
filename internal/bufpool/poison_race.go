//go:build race

package bufpool

import "unsafe"

// poison fills a released buffer with 0xFF bytes, a NaN in every float32
// word, before it is filed: under -race, a reader that still holds the
// buffer computes garbage the tests catch instead of the values it had.
func poison[T any](s []T) {
	s = s[:cap(s)]
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), byteSize[T](len(s)))
	if len(b) == 0 {
		return
	}
	b[0] = 0xFF
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
