package nn

import "dlion/internal/tensor"

// View is an inference-only view of a Model whose matmul weights are packed
// once per weight version, for serving. NewView packs the Dense weights into
// the f32 panels the matmul engine sweeps, and for finite weights its logits
// are bit-identical to Model.Forward's; NewQuantView packs the Dense and Conv2D weights to
// int8 (see quant.go). Every other layer runs its own Forward.
//
// A view shares its model's layers and their arenas, so it inherits the
// Model's single-goroutine contract, and a Forward's output stays valid only
// until the next Forward of the view or the model. A view captures the
// model's weight tensors, not their values: after the weights change in
// place (Restore), Repack refills the packed copies, allocating nothing.
type View struct {
	layers []viewLayer
}

// viewLayer is one inference-only layer of a view.
type viewLayer interface {
	forward(x *tensor.Tensor) *tensor.Tensor
	repack()
}

// NewView packs m's Dense weights and returns the f32 inference view.
// Conv2D is not pre-packed: at batch 1 it measured no faster (DESIGN.md §9).
func NewView(m *Model) *View {
	v := &View{}
	for _, l := range m.Layers {
		if d, ok := l.(*Dense); ok {
			v.layers = append(v.layers, pDense{d, tensor.PackTransB(d.w.W)})
			continue
		}
		v.layers = append(v.layers, passLayer{l})
	}
	return v
}

// Forward runs the view on x and returns logits. Like Model.Forward, the
// result is valid only until the next Forward.
func (v *View) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range v.layers {
		x = l.forward(x)
	}
	return x
}

// Repack refills every packed weight from the model's current values.
func (v *View) Repack() {
	for _, l := range v.layers {
		l.repack()
	}
}

// passLayer runs a layer that is not packed through its own Forward.
type passLayer struct{ l Layer }

func (p passLayer) forward(x *tensor.Tensor) *tensor.Tensor { return p.l.Forward(x) }
func (passLayer) repack()                                   {}

// pDense is the f32 Dense forward over the weight packed once.
type pDense struct {
	d *Dense
	w *tensor.PackedB
}

func (z pDense) forward(x *tensor.Tensor) *tensor.Tensor { return z.d.forward(x, z.w) }
func (z pDense) repack()                                 { z.w.Repack() }
