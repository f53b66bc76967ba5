// Package bufpool is the free list behind the gradient-frame path: encoded
// frames ([]byte) in wire, queue and realtime, and the float32/int32 storage
// wire.Decode fills. A dense gradient frame is megabytes and one crosses
// every layer each iteration, so allocating (and zeroing, and collecting) a
// fresh buffer per hop was the dominant cost of real-mode training; recycled
// buffers make the steady state garbage-free.
//
// Ownership is by convention, not enforced: a buffer has exactly one owner,
// and only the owner may Put it, once, after its last read. Forgetting a Put
// is harmless (the GC collects the buffer); a Put while the buffer is still
// referenced is a data race. DESIGN.md §9 lists who owns a frame where.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Requests smaller than minBytes are plain allocations: control messages and
// sparse frames are cheap to allocate, and keeping them out means the size
// classes hold only buffers worth recycling. maxBytes is the transport's
// frame limit; nothing larger is ever read or encoded.
const (
	minBytes   = 64 << 10
	maxBytes   = 64 << 20
	numClasses = 11 // 64 KB, 128 KB, ... 64 MB
)

// Pool is a size-classed free list of []T: one sync.Pool per power-of-two
// range of byte sizes. Buffers are allocated at exactly the requested size —
// a job's frames are all one size, so rounding up would only waste memory
// and zeroing — and filed by capacity. The zero value is ready to use; a
// Pool must not be copied.
type Pool[T any] struct {
	classes [numClasses]sync.Pool
}

// Bytes holds encoded frames. It is shared by every layer a frame crosses,
// so a buffer released by one hop serves the next.
var Bytes Pool[byte]

// byteSize returns the size in bytes of n elements of T.
func byteSize[T any](n int) int { return n * int(unsafe.Sizeof(*new(T))) }

// class returns the index of the size class [minBytes<<c, minBytes<<(c+1))
// holding b bytes, minBytes <= b <= maxBytes.
func class(b int) int { return bits.Len(uint(b)) - bits.Len(uint(minBytes)) }

// Get returns a slice of length n whose contents are undefined: the caller
// must overwrite all of it before reading.
func (p *Pool[T]) Get(n int) []T {
	b := byteSize[T](n)
	if b < minBytes || b > maxBytes {
		return make([]T, n)
	}
	// A recycled buffer of n's class serves the request if it is long
	// enough. One that is not is dropped, so a class that sees several sizes
	// converges on buffers of the largest.
	if v, _ := p.classes[class(b)].Get().(*[]T); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]T, n)
}

// Recyclable reports whether Put would keep s, that is, whether s is of a
// size Get serves from a class.
func (p *Pool[T]) Recyclable(s []T) bool {
	b := byteSize[T](cap(s))
	return b >= minBytes && b <= maxBytes
}

// Put hands s back for reuse. The caller must own s and must not touch it
// (or any slice sharing its array) afterwards. Slices too small or too large
// for a class are left to the GC, so Put is safe on any slice the caller owns.
func (p *Pool[T]) Put(s []T) {
	if !p.Recyclable(s) {
		return
	}
	p.classes[class(byteSize[T](cap(s)))].Put(&s)
}
