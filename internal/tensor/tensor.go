// Package tensor provides dense float32 tensors and the parallel linear
// algebra kernels the neural-network substrate is built on.
//
// DLion's original prototype delegated all tensor math to TensorFlow; this
// package is the from-scratch replacement. It is deliberately small: dense
// row-major tensors, a handful of shaped constructors, and the kernels the
// layers in internal/nn need (matmul, im2col convolution, pooling,
// element-wise ops). Heavy kernels shard their outer loop across goroutines.
package tensor

import "fmt"

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New or one of the shaped constructors for anything useful.
type Tensor struct {
	Shape []int
	Data  []float32

	// wsBits records the Workspace size class when the tensor was born from
	// an arena Get; zero for ordinary tensors. Copies and tensors wrapped
	// around an arena buffer's data drop it, so only the original owner can
	// recycle a buffer.
	wsBits int8
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Add accumulates u into t element-wise. Shapes must have equal length.
func (t *Tensor) Add(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: Add length mismatch")
	}
	acc(t.Data, u.Data)
}

// AddScaled accumulates alpha*u into t. Shapes must have equal length.
func (t *Tensor) AddScaled(alpha float32, u *Tensor) { Axpy(t.Data, alpha, u.Data) }

// MaxAbs returns the maximum absolute element value (0 for empty tensors).
// A NaN element is never the maximum.
func (t *Tensor) MaxAbs() float32 { return maxAbs(t.Data) }

// String renders a short description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
