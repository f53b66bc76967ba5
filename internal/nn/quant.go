package nn

import (
	"dlion/internal/tensor"
)

// NewQuantView packs m's Dense and Conv2D weights into int8 panel form and
// returns the quantized inference view: those layers run on tensor.QuantMat
// kernels, while cheap or shape-only layers (ReLU, pooling, Flatten,
// DepthwiseConv2D) keep their float32 Forward. Activations are re-quantized
// per layer with per-row symmetric scales, so precision loss does not
// compound beyond each matmul's own rounding. Repack requantizes the weights
// in place (see View).
func NewQuantView(m *Model) *View {
	v := &View{}
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Dense:
			v.layers = append(v.layers, &qDense{d: t, q: tensor.PackQuantMat(t.w.W.Data, t.Out, t.In)})
		case *Conv2D:
			v.layers = append(v.layers, &qConv{c: t, q: tensor.PackQuantMat(t.w.W.Data, t.Filters, t.InCh*t.K*t.K)})
		default:
			v.layers = append(v.layers, passLayer{t})
		}
	}
	return v
}

// qBuf is the retained activation-quantization scratch shared by the
// quantized layers: int8-range codes (widened to int16) and per-row scales,
// grown on demand like MaxPool2's window offsets.
type qBuf struct {
	codes  []int16
	scales []float32
}

func (b *qBuf) grow(rows, packedK int) ([]int16, []float32) {
	if cap(b.codes) < rows*packedK {
		b.codes = make([]int16, rows*packedK)
	}
	if cap(b.scales) < rows {
		b.scales = make([]float32, rows)
	}
	return b.codes[:rows*packedK], b.scales[:rows]
}

// qDense is the int8 Dense forward: y = dequant(q8(x)·Wᵀ) + b, drawing its
// output from the Dense layer's arena.
type qDense struct {
	d *Dense
	q *tensor.QuantMat
	b qBuf
}

func (z *qDense) repack() { z.q.Repack(z.d.w.W.Data) }

func (z *qDense) forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != z.d.In {
		panic(shapeErr(z.d.name, []int{-1, z.d.In}, x.Shape))
	}
	batch := x.Shape[0]
	qa, sc := z.b.grow(batch, z.q.PackedK())
	tensor.QuantizeRowsI8(qa, sc, x.Data, batch, z.d.In)
	y := z.d.nextY(batch, z.d.Out)
	z.q.MatMulTransB(y.Data, qa, sc, batch, z.d.b.W.Data)
	return y
}

// qConv is the int8 Conv2D forward: im2col, per-patch quantization, one
// packed int8 matmul, NCHW rearrange (bias folded into the matmul), on the
// Conv2D layer's arena.
type qConv struct {
	c *Conv2D
	q *tensor.QuantMat
	b qBuf
}

func (z *qConv) repack() { z.q.Repack(z.c.w.W.Data) }

func (z *qConv) forward(x *tensor.Tensor) *tensor.Tensor {
	c := z.c
	if x.Rank() != 4 || x.Shape[1] != c.InCh {
		panic(shapeErr(c.name, []int{-1, c.InCh, -1, -1}, x.Shape))
	}
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := (h+2*c.Pad-c.K)/c.Stride + 1
	outW := (w+2*c.Pad-c.K)/c.Stride + 1
	k := c.InCh * c.K * c.K
	cols := tensor.Im2ColWS(c.ws, x, c.K, c.K, c.Stride, c.Pad) // (batch*oh*ow, k)
	rows := batch * outH * outW
	qa, sc := z.b.grow(rows, z.q.PackedK())
	tensor.QuantizeRowsI8(qa, sc, cols.Data, rows, k)
	yc := c.ws.Get(rows, c.Filters) // scratch; fully written
	z.q.MatMulTransB(yc.Data, qa, sc, rows, c.b.W.Data)
	c.ws.Put(cols)
	y := c.nextY(batch, c.Filters, outH, outW)
	plane := outH * outW
	for n := 0; n < batch; n++ {
		for p := 0; p < plane; p++ {
			src := yc.Data[(n*plane+p)*c.Filters:][:c.Filters]
			for f, v := range src {
				y.Data[(n*c.Filters+f)*plane+p] = v
			}
		}
	}
	c.ws.Put(yc)
	return y
}
