package tensor

import (
	"fmt"
	"testing"
)

func benchTensors(m, k, n int) (*Tensor, *Tensor, *Tensor) {
	r := newTestRand(1)
	return New(m, n), randTensor(r, m, k), randTensor(r, k, n)
}

func BenchmarkMatMul128(b *testing.B) {
	c, x, y := benchTensors(128, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y)
	}
}

func BenchmarkMatMulTransB128(b *testing.B) {
	r := newTestRand(2)
	c := New(128, 128)
	x := randTensor(r, 128, 128)
	y := randTensor(r, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(c, x, y)
	}
}

// BenchmarkIm2Col and BenchmarkCol2Im draw each output from a warm
// workspace and return it, as Conv2D does, so they time the walk, not the
// allocator.
func BenchmarkIm2Col(b *testing.B) {
	r := newTestRand(3)
	in := randTensor(r, 32, 10, 16, 16)
	ws := NewWorkspace()
	ws.Put(Im2ColWS(ws, in, 3, 3, 1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Put(Im2ColWS(ws, in, 3, 3, 1, 1))
	}
}

func BenchmarkAddScaled(b *testing.B) {
	r := newTestRand(4)
	x := randTensor(r, 1<<16)
	y := randTensor(r, 1<<16)
	b.SetBytes(4 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AddScaled(0.001, y)
	}
}

func BenchmarkMaxAbs(b *testing.B) {
	r := newTestRand(5)
	x := randTensor(r, 1<<16)
	b.SetBytes(4 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MaxAbs()
	}
}

func BenchmarkMatMulTransA128(b *testing.B) {
	r := newTestRand(6)
	c := New(128, 128)
	aT := randTensor(r, 128, 128)
	y := randTensor(r, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransA(c, aT, y)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	r := newTestRand(7)
	in := randTensor(r, 32, 10, 16, 16)
	cols := Im2ColWS(nil, in, 3, 3, 1, 1)
	ws := NewWorkspace()
	ws.Put(Col2ImWS(ws, cols, 32, 10, 16, 16, 3, 3, 1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Put(Col2ImWS(ws, cols, 32, 10, 16, 16, 3, 3, 1, 1))
	}
}

// stepShape is one matmul of a Cipher training step (nn's buildCipher), as
// the layers call it: name is <layer>_<fwd|dW|dX>, mode the operand layout,
// and weightA says a is the layer's weight, so b is the activation side.
type stepShape struct {
	name    string
	m, n, k int
	mode    int
	weightA bool
}

// cipherStepShapes lists the 15 matmuls of one Cipher training step over a
// batch of 1-channel side×side images: per convolution (3×3, pad 1, each
// but the last followed by a 2×2 pool) the forward W·cols, the weight
// gradient dout·colsᵀ and the column gradient Wᵀ·dout over the tap-major
// columns; per dense layer the forward, the weight gradient and the input
// gradient.
func cipherStepShapes(batch, side, classes int) []stepShape {
	var s []stepShape
	in := 1
	for i, filters := range []int{10, 20, 100} {
		name := fmt.Sprintf("conv%d", i+1)
		np, ckk := batch*side*side, in*9
		s = append(s,
			stepShape{name + "_fwd", filters, np, ckk, mmPlain, true},
			stepShape{name + "_dW", filters, ckk, np, mmTransB, false},
			stepShape{name + "_dX", ckk, np, filters, mmTransA, true})
		in = filters
		if i < 2 {
			side /= 2
		}
	}
	fcIn := side * side * in
	for i, out := range []int{200, classes} {
		name := fmt.Sprintf("fc%d", i+1)
		s = append(s,
			stepShape{name + "_fwd", batch, out, fcIn, mmTransB, false},
			stepShape{name + "_dW", out, fcIn, batch, mmTransA, false},
			stepShape{name + "_dX", batch, fcIn, out, mmPlain, false})
		fcIn = out
	}
	return s
}

// stepOperands draws a shape's operands in their stored layouts, with a
// post-ReLU-sparse activation side, and returns the call that multiplies
// them.
func stepOperands(r *testRand, s stepShape) func() {
	c := New(s.m, s.n)
	var a, b *Tensor
	switch s.mode {
	case mmPlain:
		a, b = randTensor(r, s.m, s.k), randTensor(r, s.k, s.n)
	case mmTransA:
		a, b = randTensor(r, s.k, s.m), randTensor(r, s.k, s.n)
	default:
		a, b = randTensor(r, s.m, s.k), randTensor(r, s.n, s.k)
	}
	if s.weightA {
		sparsify(r, b)
	} else {
		sparsify(r, a)
	}
	switch s.mode {
	case mmPlain:
		return func() { MatMul(c, a, b) }
	case mmTransA:
		return func() { MatMulTransA(c, a, b) }
	default:
		return func() { MatMulTransB(c, a, b) }
	}
}

// BenchmarkCipherStep32Shapes times each matmul of an LBS-32 Cipher step
// (16×16 inputs, 10 classes, the train_compute workload) alone, so the
// step's matmul time decomposes by layer and pass.
func BenchmarkCipherStep32Shapes(b *testing.B) {
	for _, s := range cipherStepShapes(32, 16, 10) {
		b.Run(s.name, func(b *testing.B) {
			mul := stepOperands(newTestRand(int64(s.m*7+s.n*3+s.k)), s)
			mul()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mul()
			}
		})
	}
}
