package nn

import (
	"dlion/internal/tensor"
)

// QuantModel is an int8 inference view of a Model: the matmul-heavy layers
// (Dense, Conv2D) run on tensor.QuantMat int8 kernels with weights packed
// once at construction, while cheap or shape-only layers (ReLU, pooling,
// Flatten, DepthwiseConv2D) keep their float32 Forward. Activations are
// re-quantized per layer with per-row symmetric scales, so precision loss
// does not compound beyond each matmul's own rounding.
//
// A QuantModel wraps — and shares layer state with — its source model:
// Forward uses the f32 layers' own arenas for the pass-through layers, so
// the pair inherits the Model's single-goroutine contract, and outputs obey
// the same aliasing rule (valid until the next Forward). Weights are
// captured at NewQuantModel time; after mutating the source model (e.g.
// Restore), build a fresh QuantModel to repack.
type QuantModel struct {
	model  *Model
	layers []qForward
}

// qForward is one inference-only layer of the quantized stack.
type qForward interface {
	forward(x *tensor.Tensor) *tensor.Tensor
}

// NewQuantModel packs m's Dense and Conv2D weights into int8 panel form and
// returns the quantized inference stack. m must not be mutated for as long
// as the QuantModel is in use (its pass-through layers are shared).
func NewQuantModel(m *Model) *QuantModel {
	qm := &QuantModel{model: m}
	ws := tensor.NewWorkspace()
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Dense:
			qm.layers = append(qm.layers, newQDense(t, ws))
		case *Conv2D:
			qm.layers = append(qm.layers, newQConv(t, ws))
		default:
			qm.layers = append(qm.layers, passLayer{t})
		}
	}
	return qm
}

// Model returns the source model the quantized stack was packed from.
func (qm *QuantModel) Model() *Model { return qm.model }

// Forward runs the quantized stack on x and returns logits. Like
// Model.Forward, the result is valid only until the next Forward.
func (qm *QuantModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range qm.layers {
		x = l.forward(x)
	}
	return x
}

// passLayer adapts an unquantized layer into the stack.
type passLayer struct{ l Layer }

func (p passLayer) forward(x *tensor.Tensor) *tensor.Tensor { return p.l.Forward(x) }

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

// qDense is the int8 Dense forward: y = dequant(q8(x)·Wᵀ) + b.
type qDense struct {
	arena
	d *Dense
	q *tensor.QuantMat
	b qBuf
}

func newQDense(d *Dense, ws *tensor.Workspace) *qDense {
	z := &qDense{d: d, q: tensor.PackQuantMat(d.w.W.Data, d.Out, d.In)}
	z.setWorkspace(ws)
	return z
}

func (z *qDense) forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != z.d.In {
		panic(shapeErr(z.d.name, []int{-1, z.d.In}, x.Shape))
	}
	batch := x.Shape[0]
	qa, sc := z.b.grow(batch, z.q.PackedK())
	tensor.QuantizeRowsI8(qa, sc, x.Data, batch, z.d.In)
	y := z.nextY(batch, z.d.Out)
	z.q.MatMulTransB(y.Data, qa, sc, batch, z.d.b.W.Data)
	return y
}

// qConv is the int8 Conv2D forward: im2col, per-patch quantization, one
// packed int8 matmul, NCHW rearrange (bias folded into the matmul).
type qConv struct {
	arena
	c *Conv2D
	q *tensor.QuantMat
	b qBuf
}

func newQConv(c *Conv2D, ws *tensor.Workspace) *qConv {
	z := &qConv{c: c, q: tensor.PackQuantMat(c.w.W.Data, c.Filters, c.InCh*c.K*c.K)}
	z.setWorkspace(ws)
	return z
}

func (z *qConv) forward(x *tensor.Tensor) *tensor.Tensor {
	c := z.c
	if x.Rank() != 4 || x.Shape[1] != c.InCh {
		panic(shapeErr(c.name, []int{-1, c.InCh, -1, -1}, x.Shape))
	}
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := (h+2*c.Pad-c.K)/c.Stride + 1
	outW := (w+2*c.Pad-c.K)/c.Stride + 1
	k := c.InCh * c.K * c.K
	cols := tensor.Im2ColWS(z.ws, x, c.K, c.K, c.Stride, c.Pad) // (batch*oh*ow, k)
	rows := batch * outH * outW
	qa, sc := z.b.grow(rows, z.q.PackedK())
	tensor.QuantizeRowsI8(qa, sc, cols.Data, rows, k)
	yc := z.ws.Get(rows, c.Filters) // scratch; fully written
	z.q.MatMulTransB(yc.Data, qa, sc, rows, c.b.W.Data)
	z.ws.Put(cols)
	y := z.nextY(batch, c.Filters, outH, outW)
	plane := outH * outW
	for n := 0; n < batch; n++ {
		for p := 0; p < plane; p++ {
			src := yc.Data[(n*plane+p)*c.Filters:][:c.Filters]
			for f, v := range src {
				y.Data[(n*c.Filters+f)*plane+p] = v
			}
		}
	}
	z.ws.Put(yc)
	return y
}
