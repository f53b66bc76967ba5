package tensor

import (
	"math/bits"
	"sync/atomic"
)

// Workspace is an arena of reusable float32 buffers organized as power-of-two
// size-class free lists. It exists to take layer activations, im2col columns,
// and gradient scratch off the garbage collector: the owner Puts a buffer
// back the moment its last consumer is done and Gets a fresh one in the same
// size class, so after one warmup iteration the training hot path recycles a
// constant working set instead of allocating ~9 MB per step.
//
// Ownership and aliasing contract (DESIGN.md §9):
//
//   - A Workspace is NOT safe for concurrent use: one goroutine per arena.
//     A model normally holds its own. Several models may share one when a
//     single goroutine steps them in turn and each returns what it drew
//     before the next runs — nn.Spec.Replicas builds such a set, where a
//     private arena per replica would sit idle. A step slot (Slots) owns
//     one arena for its life and lends it to each step it runs, which is
//     how the simulator's replicas train on several goroutines at once.
//     Sharing one across goroutines is a race.
//   - Only tensors born from Get/GetZeroed are recyclable; Put silently
//     ignores foreign tensors (from New, FromSlice, Reshape views), so a
//     view of an arena buffer can never re-enter the free lists as a second
//     owner.
//   - Put declares the buffer dead. The caller must guarantee no live
//     reference reads it afterwards; the standard discipline is that a
//     producer Puts only its own previous output at the start of producing
//     the next one, by which time every downstream consumer has finished.
//   - Get returns a DIRTY buffer (previous contents). Use GetZeroed when the
//     kernel accumulates instead of overwriting.
type Workspace struct {
	free [wsMaxBits + 1][]*Tensor
}

const (
	// wsMinBits is the smallest tracked class, 256 elements (1 KiB): below
	// that the GC is cheap enough that recycling is not worth list traffic.
	wsMinBits = 8
	// wsMaxBits caps a class at 64 Mi elements (256 MiB) so a single huge
	// temporary cannot pin unbounded memory in a free list.
	wsMaxBits = 26
)

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsClass returns the size class (ceil log2) for an n-element buffer.
func wsClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < wsMinBits {
		c = wsMinBits
	}
	return c
}

// Get returns a tensor of the given shape backed by a recycled buffer when
// one is available. Contents are unspecified. A nil workspace, an empty
// shape, or an oversize request falls back to a plain heap allocation.
func (w *Workspace) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if w == nil || n <= 0 || n > 1<<wsMaxBits {
		// Equivalent of New(shape...), inlined so the variadic argument
		// never escapes: New's formatted panic would force every caller's
		// shape literal onto the heap, one allocation per Get even on the
		// recycled path.
		if n < 0 {
			panic("tensor: negative dimension in workspace Get")
		}
		return &Tensor{Shape: append(make([]int, 0, 4), shape...), Data: make([]float32, n)}
	}
	cls := wsClass(n)
	list := w.free[cls]
	if len(list) == 0 {
		t := &Tensor{
			Shape:  append(make([]int, 0, 4), shape...),
			Data:   make([]float32, n, 1<<cls),
			wsBits: int8(cls),
		}
		wsInUse.Add(4 << cls)
		return t
	}
	t := list[len(list)-1]
	list[len(list)-1] = nil
	w.free[cls] = list[:len(list)-1]
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	wsInUse.Add(4 << cls)
	return t
}

// GetZeroed is Get followed by zeroing — for kernels that accumulate into
// the buffer rather than overwriting every element.
func (w *Workspace) GetZeroed(shape ...int) *Tensor {
	t := w.Get(shape...)
	if w != nil && t.wsBits != 0 {
		t.Zero()
	}
	return t
}

// Put returns an arena-owned tensor to its size-class free list. nil tensors
// and tensors not obtained from Get (wsBits==0) are ignored, so callers can
// unconditionally recycle whatever they cached.
func (w *Workspace) Put(t *Tensor) {
	if w == nil || t == nil || t.wsBits == 0 {
		return
	}
	cls := int(t.wsBits)
	if cls < 0 || cls > wsMaxBits || 1<<cls > cap(t.Data) {
		return
	}
	w.free[cls] = append(w.free[cls], t)
	wsInUse.Add(-(4 << cls))
}

// wsInUse is the bytes currently lent out across all workspaces, by class
// capacity (the figure that reflects held memory).
var wsInUse atomic.Int64

// WorkspaceStats reports the bytes currently lent out across all
// workspaces: an arena that gets back everything it lent returns to where it
// started.
func WorkspaceStats() (bytesInUse int64) { return wsInUse.Load() }
