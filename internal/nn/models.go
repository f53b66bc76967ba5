package nn

import (
	"fmt"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// Spec describes a model to construct. Identical specs (same seed) build
// byte-identical replicas, which is how DLion workers start from a common
// initial model.
//
// WireBytes decouples the size the *network model* charges for exchanging
// the full model from the in-memory parameter count: the paper's Cipher is
// 5 MB and MobileNet 17 MB, and the communication experiments depend on
// those sizes even when this reproduction scales parameter counts down.
// Zero means "use the real in-memory size".
type Spec struct {
	Kind      string // "cipher" or "mobilenet-lite"
	Channels  int
	Height    int
	Width     int
	Classes   int
	Seed      uint64
	WireBytes int
}

// CipherSpec returns the paper's Cipher CNN spec (3 conv + 2 FC with
// 10/20/100 kernels and 200 neurons, §5.1.1) for the given input geometry,
// with the 5 MB wire size.
func CipherSpec(channels, h, w, classes int, seed uint64) Spec {
	return Spec{Kind: "cipher", Channels: channels, Height: h, Width: w,
		Classes: classes, Seed: seed, WireBytes: 5 << 20}
}

// MobileNetLiteSpec returns the scaled MobileNet spec (depthwise-separable
// blocks) with the paper's 17 MB wire size.
func MobileNetLiteSpec(channels, h, w, classes int, seed uint64) Spec {
	return Spec{Kind: "mobilenet-lite", Channels: channels, Height: h, Width: w,
		Classes: classes, Seed: seed, WireBytes: 17 << 20}
}

// Build constructs the model, He-initialized from Seed, on an arena of its
// own. Unknown kinds panic (specs are authored in code, not parsed from
// input).
func (s Spec) Build() *Model {
	return s.build(stats.NewRNG(s.Seed), tensor.NewWorkspace())
}

// BuildZero constructs the model with all-zero weights on an arena of its
// own: a shell for CopyWeightsFrom, Restore or SetWeights, at none of the
// cost of drawing an initialization that is about to be overwritten.
func (s Spec) BuildZero() *Model {
	return s.build(nil, tensor.NewWorkspace())
}

// Replicas constructs n replicas with the weights Build gives — the first
// He-initialized from Seed, the rest zero-built and copied from it — all
// drawing from ONE shared arena. That makes the whole set single-goroutine
// on that arena (see Model): it is for a driver that steps its replicas in
// turn, or hands each step the arena of the slot it runs on
// (Model.TrainStepOn) as the simulator does, where n private arenas would
// sit idle. Concurrent readers copy the weights into a BuildZero replica of
// their own.
func (s Spec) Replicas(n int) []*Model {
	ws := tensor.NewWorkspace()
	ms := make([]*Model, n)
	for i := range ms {
		if i == 0 {
			ms[i] = s.build(stats.NewRNG(s.Seed), ws)
			continue
		}
		ms[i] = s.build(nil, ws)
		if err := ms[i].CopyWeightsFrom(ms[0]); err != nil {
			panic(err) // same spec, same shapes: cannot fail
		}
	}
	return ms
}

// build assembles the model on ws; a nil rng leaves the weights zero.
func (s Spec) build(rng *stats.RNG, ws *tensor.Workspace) *Model {
	switch s.Kind {
	case "cipher":
		return buildCipher(s, rng, ws)
	case "mobilenet-lite":
		return buildMobileNetLite(s, rng, ws)
	default:
		panic(fmt.Sprintf("nn: unknown model kind %q", s.Kind))
	}
}

// ExchangeBytes returns the byte size charged when the full model (or full
// gradient) crosses the network.
func (s Spec) ExchangeBytes() int {
	if s.WireBytes > 0 {
		return s.WireBytes
	}
	return s.BuildZero().SizeBytes()
}

// buildCipher assembles the Cipher CNN: conv(10)-relu-pool,
// conv(20)-relu-pool, conv(100)-relu, fc(200)-relu, fc(classes).
func buildCipher(s Spec, rng *stats.RNG, ws *tensor.Workspace) *Model {
	h, w := s.Height, s.Width
	conv1 := NewConv2D("conv1", s.Channels, 10, 3, 1, 1, rng)
	pool1 := NewMaxPool2("pool1")
	h, w = h/2, w/2
	conv2 := NewConv2D("conv2", 10, 20, 3, 1, 1, rng)
	pool2 := NewMaxPool2("pool2")
	h, w = h/2, w/2
	conv3 := NewConv2D("conv3", 20, 100, 3, 1, 1, rng)
	flat := h * w * 100
	return newModel(ws, "cipher",
		conv1, NewReLU("relu1"), pool1,
		conv2, NewReLU("relu2"), pool2,
		conv3, NewReLU("relu3"),
		NewFlatten("flatten"),
		NewDense("fc1", flat, 200, rng), NewReLU("relu4"),
		NewDense("fc2", 200, s.Classes, rng),
	)
}

// buildMobileNetLite assembles a reduced MobileNet: a stem convolution
// followed by depthwise-separable blocks (depthwise 3x3 + pointwise 1x1),
// global average pooling, and a classifier head.
func buildMobileNetLite(s Spec, rng *stats.RNG, ws *tensor.Workspace) *Model {
	type block struct{ in, out, stride int }
	blocks := []block{
		{32, 64, 1},
		{64, 128, 2},
		{128, 128, 1},
		{128, 256, 2},
	}
	layers := []Layer{
		NewConv2D("stem", s.Channels, 32, 3, 2, 1, rng),
		NewReLU("stem_relu"),
	}
	for i, b := range blocks {
		dw := fmt.Sprintf("dw%d", i+1)
		pw := fmt.Sprintf("pw%d", i+1)
		layers = append(layers,
			NewDepthwiseConv2D(dw, b.in, 3, b.stride, 1, rng),
			NewReLU(dw+"_relu"),
			NewConv2D(pw, b.in, b.out, 1, 1, 0, rng),
			NewReLU(pw+"_relu"),
		)
	}
	layers = append(layers,
		NewGlobalAvgPool("gap"),
		NewDense("fc", 256, s.Classes, rng),
	)
	return newModel(ws, "mobilenet-lite", layers...)
}
