package nn

import (
	"bytes"
	"fmt"
	"unsafe"

	"dlion/internal/data"
	"dlion/internal/tensor"
)

// Model is an ordered stack of layers trained with softmax cross-entropy.
// A model owns its weights; DLion gives each worker its own replica built
// from the same Spec and seed so all replicas start identical.
//
// A model draws activations and scratch from a tensor.Workspace, so the
// steady-state training loop recycles a constant set of buffers instead of
// allocating megabytes per step. The arena is the model's own, except that
// the replicas Spec.Replicas builds share one, and that TrainStepOn draws
// from the arena it is given. The rules (DESIGN.md §9):
//
//   - One goroutine per arena: a model built by NewModel or Spec.Build is
//     single-goroutine, and so is a whole Spec.Replicas set on its shared
//     arena. A step slot (tensor.Slots) owns one arena and lends it to each
//     step it runs (TrainStepOn), so replicas of one set train on different
//     slots at once.
//   - TrainStep leaves no arena buffer held: by the time it returns, every
//     activation, column matrix and the loss gradient is back in the arena,
//     which is what lets replicas that take turns share one.
//   - The tensor Forward returns (and the buffers behind it) stay valid
//     until that model's next Forward or TrainStep; callers that retain
//     results longer must Clone.
type Model struct {
	ModelName string
	Layers    []Layer

	params []*Param
	byName map[string]*Param
	ws     *tensor.Workspace
	users  []workspaceUser // the layers holding arena buffers
}

// NewModel assembles a model from layers and indexes its parameters.
// Duplicate parameter names are a programming error and panic.
func NewModel(name string, layers ...Layer) *Model {
	return newModel(tensor.NewWorkspace(), name, layers...)
}

// newModel is NewModel on a given arena.
func newModel(ws *tensor.Workspace, name string, layers ...Layer) *Model {
	m := &Model{ModelName: name, Layers: layers, byName: map[string]*Param{}, ws: ws}
	for _, l := range layers {
		if wu, ok := l.(workspaceUser); ok {
			wu.setWorkspace(ws)
			m.users = append(m.users, wu)
		}
		for _, p := range l.Params() {
			if _, dup := m.byName[p.Name]; dup {
				panic(fmt.Sprintf("nn: duplicate parameter %q", p.Name))
			}
			m.byName[p.Name] = p
			m.params = append(m.params, p)
		}
	}
	return m
}

// Name returns the model name.
func (m *Model) Name() string { return m.ModelName }

// Params returns all weight variables in layer order.
func (m *Model) Params() []*Param { return m.params }

// Param returns the named weight variable, or nil.
func (m *Model) Param(name string) *Param { return m.byName[name] }

// NumParams returns the total number of scalar weights.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.W.Len()
	}
	return n
}

// SizeBytes returns the in-memory model size (float32 weights).
func (m *Model) SizeBytes() int { return 4 * m.NumParams() }

// Forward runs the stack on x and returns logits.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// ZeroGrads clears all gradient buffers.
func (m *Model) ZeroGrads() {
	for _, p := range m.params {
		p.G.Zero()
	}
}

// TrainStep runs one forward/backward pass over the batch, leaving the mean
// gradient in each Param's G buffer (replacing previous contents), and
// returns the batch loss and accuracy. It does NOT update weights — in
// DLion the model-update module applies gradients separately (possibly
// combined with remote gradients). Everything the step drew from the arena
// is returned before TrainStep does (see Model).
func (m *Model) TrainStep(x *tensor.Tensor, labels []int) (loss, acc float64) {
	return m.TrainStepOn(m.ws, x, labels)
}

// TrainStepOn is TrainStep drawing from ws instead of the model's own arena:
// the layers are bound to ws for the step and back to the model's arena
// after it, so the step may run on any goroutine that owns ws — a step
// slot (tensor.Slots) or a real-mode node's event loop. The step reads only
// the weights and the batch and writes only the gradients and the layers'
// activations, and the result does not depend on which arena it drew from.
func (m *Model) TrainStepOn(ws *tensor.Workspace, x *tensor.Tensor, labels []int) (loss, acc float64) {
	if ws != m.ws {
		m.bind(ws)
		defer m.bind(m.ws)
	}
	m.ZeroGrads()
	logits := m.Forward(x)
	loss, acc, dlogits := softmaxCrossEntropyWS(ws, logits, labels)
	dout := dlogits
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dout = m.Layers[i].Backward(dout)
	}
	ws.Put(dlogits)
	for _, u := range m.users {
		u.release()
	}
	return loss, acc
}

// bind points every layer at ws, first returning whatever a Forward left
// held to the arena it came from.
func (m *Model) bind(ws *tensor.Workspace) {
	for _, u := range m.users {
		u.release()
		u.setWorkspace(ws)
	}
}

// ApplySGD performs w -= lr*g for every parameter using the gradients
// currently stored in G.
func (m *Model) ApplySGD(lr float64) {
	f := float32(lr)
	for _, p := range m.params {
		p.W.AddScaled(-f, p.G)
	}
}

// Evaluate computes accuracy and mean loss over a dataset, batching by
// evalBatch samples.
func (m *Model) Evaluate(ds *data.Dataset, evalBatch int) (acc, loss float64) {
	var totalCorrectWeighted, totalLossWeighted float64
	total := 0
	data.EvalBatches(ds, evalBatch, func(x *tensor.Tensor, y []int) {
		logits := m.Forward(x)
		l, a, _ := SoftmaxCrossEntropy(logits, y)
		totalCorrectWeighted += a * float64(len(y))
		totalLossWeighted += l * float64(len(y))
		total += len(y)
	})
	if total == 0 {
		return 0, 0
	}
	return totalCorrectWeighted / float64(total), totalLossWeighted / float64(total)
}

// Weights returns deep copies of all weight tensors keyed by name (for
// direct knowledge transfer).
func (m *Model) Weights() map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(m.params))
	for _, p := range m.params {
		out[p.Name] = p.W.Clone()
	}
	return out
}

// SetWeights overwrites parameters from the given map. Unknown names are an
// error; missing names are left unchanged.
func (m *Model) SetWeights(w map[string]*tensor.Tensor) error {
	for name, t := range w {
		p := m.byName[name]
		if p == nil {
			return fmt.Errorf("nn: unknown parameter %q", name)
		}
		if t.Len() != p.W.Len() {
			return fmt.Errorf("nn: parameter %q size %d != %d", name, t.Len(), p.W.Len())
		}
		copy(p.W.Data, t.Data)
	}
	return nil
}

// MergeWeights blends remote weights into local ones:
// w_local = w_local - λ(w_local - w_remote), the leader-SGD merge rule the
// paper adopts for direct knowledge transfer (§3.4). λ=0 is a no-op, λ=1
// replaces local weights entirely.
func (m *Model) MergeWeights(remote map[string]*tensor.Tensor, lambda float64) error {
	if lambda < 0 || lambda > 1 {
		return fmt.Errorf("nn: lambda %v outside [0,1]", lambda)
	}
	lf := float32(lambda)
	for name, t := range remote {
		p := m.byName[name]
		if p == nil {
			return fmt.Errorf("nn: unknown parameter %q", name)
		}
		if t.Len() != p.W.Len() {
			return fmt.Errorf("nn: parameter %q size %d != %d", name, t.Len(), p.W.Len())
		}
		for i := range p.W.Data {
			p.W.Data[i] -= lf * (p.W.Data[i] - t.Data[i])
		}
	}
	return nil
}

// CopyWeightsFrom makes m's weights identical to src's (shapes must match).
func (m *Model) CopyWeightsFrom(src *Model) error {
	if len(m.params) != len(src.params) {
		return fmt.Errorf("nn: models differ: %d vs %d params", len(m.params), len(src.params))
	}
	for i, p := range m.params {
		sp := src.params[i]
		if p.Name != sp.Name || p.W.Len() != sp.W.Len() {
			return fmt.Errorf("nn: parameter mismatch at %d: %q/%d vs %q/%d",
				i, p.Name, p.W.Len(), sp.Name, sp.W.Len())
		}
		copy(p.W.Data, sp.W.Data)
	}
	return nil
}

// WeightsEqual reports whether m and o hold bit-identical weights: the
// same parameter sizes in the same order, word for word (a NaN equals only
// the same NaN, -0 differs from +0). It stops at the first differing block.
func (m *Model) WeightsEqual(o *Model) bool {
	if len(m.params) != len(o.params) {
		return false
	}
	for i, p := range m.params {
		if !bytes.Equal(f32Bytes(p.W.Data), f32Bytes(o.params[i].W.Data)) {
			return false
		}
	}
	return true
}

// f32Bytes views vals' memory as bytes.
func f32Bytes(vals []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}
