package nn

import (
	"math"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// workspaceUser is implemented by layers that draw activations and scratch
// from a model's arena. NewModel injects its workspace into every layer
// that implements it; a standalone layer keeps a nil workspace, which makes
// every arena call degrade to a plain heap allocation. release hands every
// arena buffer the layer still holds back to the workspace.
type workspaceUser interface {
	setWorkspace(ws *tensor.Workspace)
	release()
}

// arena is the per-layer handle to the model workspace plus the layer's
// retained previous outputs. The recycling discipline (DESIGN.md §9): a
// layer owns the tensors it returns and recycles each one at the start of
// producing its successor — by which point the rest of the model has
// finished reading it (Forward outputs are consumed by the next layer and
// the loss, Backward outputs by the preceding layer, all before the next
// pass begins). Model.TrainStep releases them all once Backward is done, so
// a finished training step holds nothing and replicas can share one arena.
type arena struct {
	ws     *tensor.Workspace
	prevY  *tensor.Tensor
	prevDx *tensor.Tensor
}

func (a *arena) setWorkspace(ws *tensor.Workspace) { a.ws = ws }

func (a *arena) release() {
	a.ws.Put(a.prevY)
	a.ws.Put(a.prevDx)
	a.prevY, a.prevDx = nil, nil
}

// nextY recycles the layer's previous Forward output and draws the next
// one. The returned buffer is dirty; callers must write every element.
func (a *arena) nextY(shape ...int) *tensor.Tensor {
	a.ws.Put(a.prevY)
	a.prevY = a.ws.Get(shape...)
	return a.prevY
}

// nextDx recycles the layer's previous Backward output and draws the next
// one, zeroed when the caller accumulates instead of overwriting.
func (a *arena) nextDx(zeroed bool, shape ...int) *tensor.Tensor {
	a.ws.Put(a.prevDx)
	if zeroed {
		a.prevDx = a.ws.GetZeroed(shape...)
	} else {
		a.prevDx = a.ws.Get(shape...)
	}
	return a.prevDx
}

// Dense is a fully-connected layer: y = x·Wᵀ + b for x (batch, in),
// W (out, in), b (out).
type Dense struct {
	arena
	name    string
	In, Out int
	w, b    *Param
	x       *tensor.Tensor // cached input
}

// NewDense builds a Dense layer with He-initialized weights (all-zero
// weights when rng is nil: a shell to copy or restore weights into).
func NewDense(name string, in, out int, rng *stats.RNG) *Dense {
	d := &Dense{name: name, In: in, Out: out,
		w: newParam(name+"/W", out, in),
		b: newParam(name+"/b", out),
	}
	d.w.initHe(rng, in)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	return d.forward(x, nil)
}

// forward is Forward without keeping x for Backward, through pw (d's weight
// packed once, bit-identical for finite weights) when it is non-nil.
func (d *Dense) forward(x *tensor.Tensor, pw *tensor.PackedB) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.In {
		panic(shapeErr(d.name, []int{-1, d.In}, x.Shape))
	}
	batch := x.Shape[0]
	y := d.nextY(batch, d.Out)
	if pw != nil {
		tensor.MatMulTransBPacked(y, x, pw)
	} else {
		tensor.MatMulTransB(y, x, d.w.W)
	}
	for i := 0; i < batch; i++ {
		row := y.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.b.W.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch := d.x.Shape[0]
	// dW += doutᵀ·x ; shapes: dout (batch,out), x (batch,in), dW (out,in)
	dw := d.ws.Get(d.Out, d.In) // scratch; MatMulTransA writes every element
	tensor.MatMulTransA(dw, dout, d.x)
	d.w.G.Add(dw)
	d.ws.Put(dw)
	for i := 0; i < batch; i++ {
		row := dout.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.b.G.Data[j] += v
		}
	}
	dx := d.nextDx(false, batch, d.In)
	tensor.MatMul(dx, dout, d.w.W)
	return dx
}

// Conv2D is a standard cross-correlation layer over NCHW input, implemented
// as im2col + matmul. Output channels = Filters, kernel KxK, given stride
// and zero-padding.
type Conv2D struct {
	arena
	name                string
	InCh, Filters       int
	K, Stride, Pad      int
	w, b                *Param
	x                   *tensor.Tensor
	cols                *tensor.Tensor
	inH, inW, outH, out int // cached geometry; out = outW
}

// NewConv2D builds a Conv2D layer with He-initialized kernels (all-zero
// when rng is nil).
func NewConv2D(name string, inCh, filters, k, stride, pad int, rng *stats.RNG) *Conv2D {
	c := &Conv2D{name: name, InCh: inCh, Filters: filters, K: k, Stride: stride, Pad: pad,
		w: newParam(name+"/W", filters, inCh*k*k),
		b: newParam(name+"/b", filters),
	}
	c.w.initHe(rng, inCh*k*k)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// release also returns the im2col columns Forward keeps for Backward.
func (c *Conv2D) release() {
	c.arena.release()
	c.ws.Put(c.cols)
	c.cols = nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != c.InCh {
		panic(shapeErr(c.name, []int{-1, c.InCh, -1, -1}, x.Shape))
	}
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	c.x, c.inH, c.inW = x, h, w
	c.outH = (h+2*c.Pad-c.K)/c.Stride + 1
	c.out = (w+2*c.Pad-c.K)/c.Stride + 1
	// Columns live until this iteration's Backward; recycle last iteration's.
	c.ws.Put(c.cols)
	c.cols = tensor.Im2ColWS(c.ws, x, c.K, c.K, c.Stride, c.Pad) // (batch*oh*ow, inCh*K*K)
	// y_cols (batch*oh*ow, filters) = cols · Wᵀ
	yc := c.ws.Get(batch*c.outH*c.out, c.Filters) // scratch; fully written
	tensor.MatMulTransB(yc, c.cols, c.w.W)
	// rearrange to (batch, filters, oh, ow) and add bias
	y := c.nextY(batch, c.Filters, c.outH, c.out)
	plane := c.outH * c.out
	for n := 0; n < batch; n++ {
		for p := 0; p < plane; p++ {
			src := yc.Data[(n*plane+p)*c.Filters:][:c.Filters]
			for f, v := range src {
				y.Data[(n*c.Filters+f)*plane+p] = v + c.b.W.Data[f]
			}
		}
	}
	c.ws.Put(yc)
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch := c.x.Shape[0]
	plane := c.outH * c.out
	dyc := c.paramGrads(dout)
	// dcols = dyc · W ; then scatter back to input shape.
	dcols := c.ws.Get(batch*plane, c.InCh*c.K*c.K) // scratch; fully written
	tensor.MatMul(dcols, dyc, c.w.W)
	c.ws.Put(dyc)
	c.ws.Put(c.prevDx)
	dx := tensor.Col2ImWS(c.ws, dcols, batch, c.InCh, c.inH, c.inW, c.K, c.K, c.Stride, c.Pad)
	c.prevDx = dx
	c.ws.Put(dcols)
	return dx
}

// backwardParams implements paramBackwarder: Backward without dcols and
// Col2Im.
func (c *Conv2D) backwardParams(dout *tensor.Tensor) {
	c.ws.Put(c.paramGrads(dout))
}

// paramGrads accumulates dW and db from dout and returns dout rearranged
// as (batch*oh*ow, filters), arena scratch the caller puts back.
func (c *Conv2D) paramGrads(dout *tensor.Tensor) *tensor.Tensor {
	batch := c.x.Shape[0]
	plane := c.outH * c.out
	// Rearrange dout (batch, filters, oh, ow) into (batch*oh*ow, filters).
	dyc := c.ws.Get(batch*plane, c.Filters) // scratch; fully written
	for n := 0; n < batch; n++ {
		for f := 0; f < c.Filters; f++ {
			src := dout.Data[(n*c.Filters+f)*plane:][:plane]
			for p, v := range src {
				dyc.Data[(n*plane+p)*c.Filters+f] = v
			}
		}
	}
	// dW (filters, inCh*K*K) += dycᵀ·cols ; db += column sums of dyc
	dw := c.ws.Get(c.Filters, c.InCh*c.K*c.K) // scratch; fully written
	tensor.MatMulTransA(dw, dyc, c.cols)
	c.w.G.Add(dw)
	c.ws.Put(dw)
	for r := 0; r < batch*plane; r++ {
		row := dyc.Data[r*c.Filters:][:c.Filters]
		for f, v := range row {
			c.b.G.Data[f] += v
		}
	}
	return dyc
}

// DepthwiseConv2D convolves each input channel with its own KxK kernel
// (channel multiplier 1) — the core of MobileNet's separable convolutions.
type DepthwiseConv2D struct {
	arena
	name           string
	Ch             int
	K, Stride, Pad int
	w, b           *Param
	x              *tensor.Tensor
	outH, outW     int
}

// NewDepthwiseConv2D builds a depthwise convolution layer with
// He-initialized kernels (all-zero when rng is nil).
func NewDepthwiseConv2D(name string, ch, k, stride, pad int, rng *stats.RNG) *DepthwiseConv2D {
	d := &DepthwiseConv2D{name: name, Ch: ch, K: k, Stride: stride, Pad: pad,
		w: newParam(name+"/W", ch, k, k),
		b: newParam(name+"/b", ch),
	}
	d.w.initHe(rng, k*k)
	return d
}

// Name implements Layer.
func (d *DepthwiseConv2D) Name() string { return d.name }

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.w, d.b} }

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != d.Ch {
		panic(shapeErr(d.name, []int{-1, d.Ch, -1, -1}, x.Shape))
	}
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	d.x = x
	d.outH = (h+2*d.Pad-d.K)/d.Stride + 1
	d.outW = (w+2*d.Pad-d.K)/d.Stride + 1
	y := d.nextY(batch, d.Ch, d.outH, d.outW)
	for n := 0; n < batch; n++ {
		for ch := 0; ch < d.Ch; ch++ {
			in := x.Data[(n*d.Ch+ch)*h*w:][:h*w]
			out := y.Data[(n*d.Ch+ch)*d.outH*d.outW:][:d.outH*d.outW]
			ker := d.w.W.Data[ch*d.K*d.K:][:d.K*d.K]
			bias := d.b.W.Data[ch]
			for oy := 0; oy < d.outH; oy++ {
				for ox := 0; ox < d.outW; ox++ {
					var s float32
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if ix < 0 || ix >= w {
								continue
							}
							s += float32(in[iy*w+ix] * ker[ky*d.K+kx])
						}
					}
					out[oy*d.outW+ox] = s + bias
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch, h, w := d.x.Shape[0], d.x.Shape[2], d.x.Shape[3]
	dx := d.nextDx(true, batch, d.Ch, h, w) // zeroed: the scatter accumulates
	for n := 0; n < batch; n++ {
		for ch := 0; ch < d.Ch; ch++ {
			in := d.x.Data[(n*d.Ch+ch)*h*w:][:h*w]
			dxp := dx.Data[(n*d.Ch+ch)*h*w:][:h*w]
			dop := dout.Data[(n*d.Ch+ch)*d.outH*d.outW:][:d.outH*d.outW]
			ker := d.w.W.Data[ch*d.K*d.K:][:d.K*d.K]
			dker := d.w.G.Data[ch*d.K*d.K:][:d.K*d.K]
			var dbias float32
			for oy := 0; oy < d.outH; oy++ {
				for ox := 0; ox < d.outW; ox++ {
					g := dop[oy*d.outW+ox]
					if g == 0 {
						continue
					}
					dbias += g
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if ix < 0 || ix >= w {
								continue
							}
							dker[ky*d.K+kx] += float32(g * in[iy*w+ix])
							dxp[iy*w+ix] += float32(g * ker[ky*d.K+kx])
						}
					}
				}
			}
			// bias gradient may be zero-skipped above only when g==0, which
			// contributes nothing anyway.
			d.b.G.Data[ch] += dbias
		}
	}
	return dx
}

// Selects are computed, not branched (DESIGN.md §9): about half of all
// activations are negative, so a compare-and-branch per element mispredicts
// on every other one, and Go emits no conditional move for a float compare.
// ReLU and MaxPool2 therefore work on the float's bits.

// keepPositive is all ones when the float with bits b is > 0 (positive
// finite or +Inf) and zero for ±0, negatives and NaN: b-1 (mod 2³²) lies
// below +Inf's bits exactly then.
func keepPositive(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7f800000) >> 63)
}

// ReLU applies max(0, x) element-wise. It keeps no mask: its output is
// positive exactly where its input was, so Backward reads the kept output.
type ReLU struct {
	arena
	name string
}

// NewReLU builds a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := r.nextY(x.Shape...)
	yd := y.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float32bits(v)
		yd[i] = math.Float32frombits(b & keepPositive(b))
	}
	return y
}

// Backward implements Layer. It reads the output of the last Forward, which
// the arena keeps until the next one.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := r.nextDx(false, dout.Shape...)
	y := r.prevY.Data[:len(dout.Data)]
	dd := dx.Data[:len(dout.Data)]
	for i, v := range dout.Data {
		dd[i] = math.Float32frombits(math.Float32bits(v) & keepPositive(math.Float32bits(y[i])))
	}
	return dx
}

// poolKey maps float bits to an integer that orders like the float, with
// −0 and +0 equal. A NaN maps to nan: MaxPool2 passes MinInt32 for a
// candidate (a NaN never compares greater) and MaxInt32 for a window's first
// element (nothing compares greater than a NaN).
func poolKey(b uint32, nan int32) int32 {
	mag := int32(b & 0x7fffffff)
	sign := int32(b) >> 31
	isNaN := (0x7f800000 - mag) >> 31
	return ((mag^sign)-sign)&^isNaN | nan&isNaN
}

// MaxPool2 is 2x2 max pooling with stride 2 over NCHW input. Odd trailing
// rows/columns are dropped (floor semantics). Each output keeps the first
// maximum of its window in row-major order, as a strict > would, and
// remembers it as a window offset 0..3.
type MaxPool2 struct {
	arena
	name   string
	argmax []uint8
	insh   []int
}

// NewMaxPool2 builds a 2x2/stride-2 max-pooling layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{name: name} }

// Name implements Layer.
func (m *MaxPool2) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(shapeErr(m.name, "rank-4", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	m.insh = append(m.insh[:0], x.Shape...)
	y := m.nextY(b, c, oh, ow)
	if cap(m.argmax) < y.Len() {
		m.argmax = make([]uint8, y.Len())
	}
	m.argmax = m.argmax[:y.Len()]
	for plane := 0; plane < b*c; plane++ {
		in := x.Data[plane*h*w:][:h*w]
		for oy := 0; oy < oh; oy++ {
			r0 := in[2*oy*w:][:2*ow]
			r1 := in[(2*oy+1)*w:][:2*ow]
			out := y.Data[(plane*oh+oy)*ow:][:ow]
			arg := m.argmax[(plane*oh+oy)*ow:][:ow]
			for ox := range out {
				// Candidates in window order; each replaces the best so far
				// only when strictly greater (gt is then all ones).
				bb := math.Float32bits(r0[2*ox])
				kb, ob := poolKey(bb, math.MaxInt32), uint32(0)
				for o, v := range [3]float32{r0[2*ox+1], r1[2*ox], r1[2*ox+1]} {
					cb := math.Float32bits(v)
					kc := poolKey(cb, math.MinInt32)
					gt := int32((int64(kb) - int64(kc)) >> 63)
					kb ^= (kb ^ kc) & gt
					bb ^= (bb ^ cb) & uint32(gt)
					ob ^= (ob ^ uint32(o+1)) & uint32(gt)
				}
				out[ox] = math.Float32frombits(bb)
				arg[ox] = uint8(ob)
			}
		}
	}
	return y
}

// Backward implements Layer.
func (m *MaxPool2) Backward(dout *tensor.Tensor) *tensor.Tensor {
	// Zeroed: inputs no window chose get no gradient. Windows do not
	// overlap, so each += adds to +0 once, which turns a −0 gradient into
	// +0 exactly as the absolute-index scatter did.
	dx := m.nextDx(true, m.insh...)
	h, w := m.insh[2], m.insh[3]
	oh, ow := h/2, w/2
	for plane := 0; plane < m.insh[0]*m.insh[1]; plane++ {
		dp := dx.Data[plane*h*w:][:h*w]
		for oy := 0; oy < oh; oy++ {
			d := dout.Data[(plane*oh+oy)*ow:][:ow]
			arg := m.argmax[(plane*oh+oy)*ow:][:ow]
			for ox, v := range d {
				o := int(arg[ox])
				dp[(2*oy+o>>1)*w+(2*ox+o&1)] += v
			}
		}
	}
	return dx
}

// GlobalAvgPool averages each channel plane to a single value, producing
// (batch, ch) output from (batch, ch, h, w) input.
type GlobalAvgPool struct {
	arena
	name string
	insh []int
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(shapeErr(g.name, "rank-4", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	g.insh = append(g.insh[:0], x.Shape...)
	y := g.nextY(b, c)
	inv := 1 / float32(h*w)
	for n := 0; n < b; n++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(n*c+ch)*h*w:][:h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[n*c+ch] = s * inv
		}
	}
	return y
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := g.insh[0], g.insh[1], g.insh[2], g.insh[3]
	dx := g.nextDx(false, g.insh...) // every element overwritten below
	inv := 1 / float32(h*w)
	for n := 0; n < b; n++ {
		for ch := 0; ch < c; ch++ {
			gv := dout.Data[n*c+ch] * inv
			plane := dx.Data[(n*c+ch)*h*w:][:h*w]
			for i := range plane {
				plane[i] = gv
			}
		}
	}
	return dx
}

// Flatten reshapes (batch, ...) activations to (batch, rest).
type Flatten struct {
	name string
	insh []int
	// out and dx are reused view headers over the caller's data (the arena
	// aliasing contract already bounds their lifetime to the next pass).
	// wsBits stays zero, so Put ignores them like any Reshape view.
	out, dx tensor.Tensor
}

// NewFlatten builds a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.insh = append(f.insh[:0], x.Shape...)
	rest := 1
	for _, d := range x.Shape[1:] {
		rest *= d
	}
	f.out.Data = x.Data
	f.out.Shape = append(f.out.Shape[:0], x.Shape[0], rest)
	return &f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	f.dx.Data = dout.Data
	f.dx.Shape = append(f.dx.Shape[:0], f.insh...)
	return &f.dx
}
