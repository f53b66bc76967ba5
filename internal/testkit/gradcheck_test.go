package testkit

import (
	"testing"

	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// randInput builds a (batch, ch, h, w) tensor of unit normals and matching
// random labels.
func randInput(seed uint64, batch, ch, h, w, classes int) (*tensor.Tensor, []int) {
	rng := stats.NewRNG(seed)
	x := tensor.New(batch, ch, h, w)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

// TestGradCheckLayers covers every layer type in internal/nn with a small
// model built around it: analytic backprop must match central finite
// differences of the loss for both weight and input gradients.
func TestGradCheckLayers(t *testing.T) {
	const classes = 3
	cases := []struct {
		name  string
		ch    int // input channels
		h, w  int
		build func(rng *stats.RNG) []nn.Layer
	}{
		{"dense", 1, 4, 4, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewFlatten("f"), nn.NewDense("fc", 16, classes, rng)}
		}},
		{"dense-relu-dense", 1, 4, 4, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewFlatten("f"),
				nn.NewDense("fc1", 16, 10, rng), nn.NewReLU("r"),
				nn.NewDense("fc2", 10, classes, rng)}
		}},
		{"conv-pad", 2, 5, 5, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewConv2D("c", 2, 4, 3, 1, 1, rng),
				nn.NewFlatten("f"), nn.NewDense("fc", 4*5*5, classes, rng)}
		}},
		{"conv-stride2-nopad", 1, 7, 7, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewConv2D("c", 1, 3, 3, 2, 0, rng),
				nn.NewFlatten("f"), nn.NewDense("fc", 3*3*3, classes, rng)}
		}},
		{"depthwise", 3, 5, 5, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewDepthwiseConv2D("dw", 3, 3, 1, 1, rng),
				nn.NewFlatten("f"), nn.NewDense("fc", 3*5*5, classes, rng)}
		}},
		{"maxpool", 1, 6, 6, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewConv2D("c", 1, 4, 3, 1, 1, rng),
				nn.NewMaxPool2("p"), nn.NewFlatten("f"),
				nn.NewDense("fc", 4*3*3, classes, rng)}
		}},
		{"globalavgpool", 2, 6, 6, func(rng *stats.RNG) []nn.Layer {
			return []nn.Layer{nn.NewConv2D("c", 2, 5, 3, 1, 1, rng),
				nn.NewGlobalAvgPool("gap"), nn.NewDense("fc", 5, classes, rng)}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRNG(11)
			m := nn.NewModel(tensor.NewWorkspace(), tc.name, tc.build(rng)...)
			x, labels := randInput(23, 4, tc.ch, tc.h, tc.w, classes)
			if err := GradCheck(m, x, labels, GradCheckOpts{}); err != nil {
				t.Fatal(err)
			}
			if err := GradCheckInput(m, x, labels, GradCheckOpts{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGradCheckFullModels runs the check on the two evaluation models the
// paper uses, exactly as the cluster builds them.
func TestGradCheckFullModels(t *testing.T) {
	t.Run("cipher", func(t *testing.T) {
		m := nn.CipherSpec(1, 8, 8, 3, 31).Build()
		x, labels := randInput(7, 4, 1, 8, 8, 3)
		if err := GradCheck(m, x, labels, GradCheckOpts{MaxPerParam: 8}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mobilenet-lite", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode: MobileNetLite gradcheck is the slow one")
		}
		m := nn.MobileNetLiteSpec(3, 16, 16, 3, 31).Build()
		x, labels := randInput(7, 2, 3, 16, 16, 3)
		// Through 18 float32 layers the loss is a staircase at fine scales
		// and ReLU kinks are dense in every perturbation direction, so no
		// step size yields a clean numeric derivative; the sharp per-layer
		// tolerances live in TestGradCheckLayers and this full-depth pass
		// is a looser end-to-end sanity gate.
		opts := GradCheckOpts{MaxPerParam: 4, AbsTol: 6e-3, RelTol: 0.1}
		if err := GradCheck(m, x, labels, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// brokenDense silently corrupts its weight gradients after a correct
// backward pass — the kind of bug gradcheck exists to catch.
type brokenDense struct{ *nn.Dense }

func (b brokenDense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := b.Dense.Backward(dout)
	for _, p := range b.Dense.Params() {
		for i := range p.G.Data {
			p.G.Data[i] *= 1.5
		}
	}
	return dx
}

func TestGradCheckCatchesBrokenBackward(t *testing.T) {
	rng := stats.NewRNG(3)
	m := nn.NewModel(tensor.NewWorkspace(), "broken", nn.NewFlatten("f"),
		brokenDense{nn.NewDense("fc", 16, 3, rng)})
	x, labels := randInput(5, 4, 1, 4, 4, 3)
	if err := GradCheck(m, x, labels, GradCheckOpts{}); err == nil {
		t.Fatal("gradcheck accepted a 1.5x-scaled gradient")
	}
}

func TestGradCheckRestoresWeights(t *testing.T) {
	rng := stats.NewRNG(5)
	m := nn.NewModel(tensor.NewWorkspace(), "restore", nn.NewFlatten("f"), nn.NewDense("fc", 16, 3, rng))
	before := lineage.ModelHash(m)
	x, labels := randInput(9, 4, 1, 4, 4, 3)
	if err := GradCheck(m, x, labels, GradCheckOpts{}); err != nil {
		t.Fatal(err)
	}
	if lineage.ModelHash(m) != before {
		t.Fatal("gradcheck perturbed the weights it promised to restore")
	}
}
