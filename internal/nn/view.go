package nn

import "dlion/internal/tensor"

// View is an inference-only view of a Model whose Dense weights are packed
// once per weight version, for serving: NewView packs them into the f32
// panels the matmul engine sweeps, and for finite weights the view's logits
// are bit-identical to Model.Forward's. Every other layer runs its own
// Forward.
//
// A view shares its model's layers and their arenas, so it inherits the
// Model's single-goroutine contract, and a Forward's output stays valid only
// until the next Forward of the view or the model. A view captures the
// model's weight tensors, not their values: after the weights change in
// place (Restore), Repack refills the packed copies, allocating nothing.
type View struct {
	layers []viewLayer
}

// viewLayer is one layer of a view: a Dense layer with its packed weights,
// or any other layer with d and w nil.
type viewLayer struct {
	l Layer
	d *Dense
	w *tensor.PackedB
}

// NewView packs m's Dense weights and returns the f32 inference view.
// Conv2D is not pre-packed: at batch 1 it measured no faster (DESIGN.md §9).
func NewView(m *Model) *View {
	v := &View{}
	for _, l := range m.Layers {
		vl := viewLayer{l: l}
		if d, ok := l.(*Dense); ok {
			vl.d, vl.w = d, tensor.PackTransB(d.w.W)
		}
		v.layers = append(v.layers, vl)
	}
	return v
}

// Forward runs the view on x and returns logits. Like Model.Forward, the
// result is valid only until the next Forward.
func (v *View) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, vl := range v.layers {
		if vl.d != nil {
			x = vl.d.forward(x, vl.w)
		} else {
			x = vl.l.Forward(x)
		}
	}
	return x
}

// Repack refills every packed weight from the model's current values.
func (v *View) Repack() {
	for _, vl := range v.layers {
		if vl.w != nil {
			vl.w.Repack()
		}
	}
}
