// Package nn is the from-scratch neural-network substrate standing in for
// TensorFlow in this DLion reproduction. It provides layers with explicit
// forward/backward passes, named weight variables (DLion exchanges
// gradients per weight variable, §4.2), softmax cross-entropy loss, plain
// SGD, and the two evaluation models: the Cipher CNN and MobileNetLite.
package nn

import (
	"fmt"
	"math"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// Param is a named weight variable together with its gradient buffer. Names
// are unique within a model (e.g. "conv1/W", "fc2/b") and are the unit of
// gradient exchange between DLion workers.
type Param struct {
	Name string
	W    *tensor.Tensor // weights
	G    *tensor.Tensor // gradient of the current iteration (mean over batch)
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// initHe fills p.W with He-normal values (good default for ReLU nets) using
// fanIn as the scaling denominator. A nil rng leaves the weights zero.
func (p *Param) initHe(rng *stats.RNG, fanIn int) {
	if rng == nil {
		return
	}
	std := math.Sqrt(2 / float64(fanIn))
	for i := range p.W.Data {
		p.W.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// Layer is one differentiable stage of a model. Forward consumes the
// previous activation; Backward consumes dL/d(output) and returns
// dL/d(input), accumulating weight gradients into the layer's Params.
// Layers cache whatever they need between Forward and Backward and are not
// safe for concurrent use.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// paramBackwarder is implemented by layers whose backward pass can stop at
// their parameter gradients. Model.TrainStepOn runs its first layer that
// way: that layer's input is the data, and nothing reads its gradient.
type paramBackwarder interface {
	backwardParams(dout *tensor.Tensor)
}

// shapeErr builds a consistent panic message for layer shape violations.
func shapeErr(layer string, want, got any) string {
	return fmt.Sprintf("nn: %s: want %v, got %v", layer, want, got)
}
