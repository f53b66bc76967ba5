package nn

import (
	"math"
	"testing"

	"dlion/internal/data"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// numericalCheck verifies analytic gradients against central finite
// differences for a sample of weights in every parameter of the model.
func numericalCheck(t *testing.T, m *Model, x *tensor.Tensor, y []int) {
	t.Helper()
	lossAt := func() float64 {
		logits := m.Forward(x)
		l, _, _ := SoftmaxCrossEntropy(logits, y)
		return l
	}
	m.TrainStep(x, y) // fills G
	const eps = 1e-2
	for _, p := range m.Params() {
		// check up to 5 spread-out indices per parameter
		stride := p.W.Len()/5 + 1
		for i := 0; i < p.W.Len(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossAt()
			p.W.Data[i] = orig - eps
			lm := lossAt()
			p.W.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G.Data[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(5e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.2 {
				t.Errorf("%s[%d]: analytic %.5f vs numeric %.5f", p.Name, i, analytic, numeric)
			}
		}
	}
}

func smallBatch(rng *stats.RNG, b, c, h, w, classes int) (*tensor.Tensor, []int) {
	x := tensor.New(b, c, h, w)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	y := make([]int, b)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return x, y
}

func TestGradCheckDense(t *testing.T) {
	rng := stats.NewRNG(1)
	m := NewModel(tensor.NewWorkspace(), "d",
		NewFlatten("f"),
		NewDense("fc1", 12, 7, rng), NewReLU("r"),
		NewDense("fc2", 7, 3, rng))
	x, y := smallBatch(rng, 4, 1, 3, 4, 3)
	numericalCheck(t, m, x, y)
}

func TestGradCheckConv(t *testing.T) {
	rng := stats.NewRNG(2)
	m := NewModel(tensor.NewWorkspace(), "c",
		NewConv2D("conv", 2, 3, 3, 1, 1, rng), NewReLU("r"),
		NewFlatten("f"),
		NewDense("fc", 3*6*6, 4, rng))
	x, y := smallBatch(rng, 2, 2, 6, 6, 4)
	numericalCheck(t, m, x, y)
}

func TestGradCheckConvStride2(t *testing.T) {
	rng := stats.NewRNG(8)
	m := NewModel(tensor.NewWorkspace(), "c2",
		NewConv2D("conv", 1, 2, 3, 2, 1, rng),
		NewFlatten("f"),
		NewDense("fc", 2*3*3, 3, rng))
	x, y := smallBatch(rng, 2, 1, 6, 6, 3)
	numericalCheck(t, m, x, y)
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewModel(tensor.NewWorkspace(), "p",
		NewConv2D("conv", 1, 2, 3, 1, 1, rng),
		NewMaxPool2("pool"),
		NewFlatten("f"),
		NewDense("fc", 2*3*3, 3, rng))
	x, y := smallBatch(rng, 2, 1, 6, 6, 3)
	numericalCheck(t, m, x, y)
}

func TestGradCheckDepthwise(t *testing.T) {
	rng := stats.NewRNG(4)
	m := NewModel(tensor.NewWorkspace(), "dw",
		NewDepthwiseConv2D("dw", 3, 3, 1, 1, rng), NewReLU("r"),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 3, 2, rng))
	x, y := smallBatch(rng, 2, 3, 5, 5, 2)
	numericalCheck(t, m, x, y)
}

func TestGradCheckDepthwiseStride2(t *testing.T) {
	rng := stats.NewRNG(5)
	m := NewModel(tensor.NewWorkspace(), "dw2",
		NewDepthwiseConv2D("dw", 2, 3, 2, 1, rng),
		NewFlatten("f"),
		NewDense("fc", 2*3*3, 2, rng))
	x, y := smallBatch(rng, 2, 2, 6, 6, 2)
	numericalCheck(t, m, x, y)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, 0, 0, 3}, 2, 2)
	loss, acc, d := SoftmaxCrossEntropy(logits, []int{0, 1})
	// mean loss = (log(1+e^-2) + log(1+e^-3))/2 ≈ (0.1269+0.0486)/2 ≈ 0.0878
	if math.Abs(loss-0.0878) > 1e-3 {
		t.Fatalf("loss %v", loss)
	}
	if acc != 1 {
		t.Fatalf("acc %v", acc)
	}
	// gradient row 0: (p0-1, p1)/2 where p0 = sigmoid(2) ≈ 0.8808
	if math.Abs(float64(d.Data[0])-(0.8808-1)/2) > 1e-3 {
		t.Fatalf("grad %v", d.Data)
	}
}

func TestSoftmaxBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 2), []int{5})
}

func TestModelDeterministicBuild(t *testing.T) {
	s := CipherSpec(1, 16, 16, 10, 99)
	a, b := s.Build(), s.Build()
	for i, p := range a.Params() {
		q := b.Params()[i]
		for k := range p.W.Data {
			if p.W.Data[k] != q.W.Data[k] {
				t.Fatal("same spec+seed must build identical weights")
			}
		}
	}
}

func TestCipherStructure(t *testing.T) {
	m := CipherSpec(1, 16, 16, 10, 1).Build()
	if m.Param("conv1/W") == nil || m.Param("fc2/b") == nil {
		t.Fatal("expected named params")
	}
	logits := m.Forward(tensor.New(3, 1, 16, 16))
	if logits.Shape[0] != 3 || logits.Shape[1] != 10 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
	if m.NumParams() < 10000 {
		t.Fatalf("cipher too small: %d params", m.NumParams())
	}
}

func TestMobileNetLiteStructure(t *testing.T) {
	m := MobileNetLiteSpec(3, 16, 16, 100, 1).Build()
	logits := m.Forward(tensor.New(2, 3, 16, 16))
	if logits.Shape[0] != 2 || logits.Shape[1] != 100 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
}

func TestSpecExchangeBytes(t *testing.T) {
	s := CipherSpec(1, 16, 16, 10, 1)
	if s.ExchangeBytes() != 5<<20 {
		t.Fatalf("cipher wire bytes %d", s.ExchangeBytes())
	}
	s.WireBytes = 0
	if s.ExchangeBytes() != s.Build().SizeBytes() {
		t.Fatal("zero WireBytes should fall back to real size")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Spec{Kind: "nope"}.Build()
}

func TestDuplicateParamPanics(t *testing.T) {
	rng := stats.NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewModel(tensor.NewWorkspace(), "dup", NewDense("fc", 2, 2, rng), NewDense("fc", 2, 2, rng))
}

func TestSGDReducesLoss(t *testing.T) {
	rng := stats.NewRNG(6)
	m := NewModel(tensor.NewWorkspace(), "t",
		NewFlatten("f"),
		NewDense("fc1", 16, 16, rng), NewReLU("r"),
		NewDense("fc2", 16, 4, rng))
	x, y := smallBatch(rng, 16, 1, 4, 4, 4)
	first, _ := m.TrainStep(x, y)
	for i := 0; i < 60; i++ {
		m.TrainStep(x, y)
		m.ApplySGD(0.1)
	}
	last, acc := m.TrainStep(x, y)
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if acc < 0.9 {
		t.Fatalf("failed to overfit tiny batch: acc %v", acc)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	s := CipherSpec(1, 8, 8, 4, 3)
	a, b := s.Build(), s.Build()
	// perturb a, then restore via Weights/SetWeights into b
	a.Param("fc2/b").W.Data[0] = 42
	if err := b.SetWeights(a.Weights()); err != nil {
		t.Fatal(err)
	}
	if b.Param("fc2/b").W.Data[0] != 42 {
		t.Fatal("SetWeights did not apply")
	}
	if err := b.SetWeights(map[string]*tensor.Tensor{"nope": tensor.New(1)}); err == nil {
		t.Fatal("unknown param must error")
	}
	if err := b.SetWeights(map[string]*tensor.Tensor{"fc2/b": tensor.New(1)}); err == nil {
		t.Fatal("size mismatch must error")
	}
}

func TestMergeWeightsLambda(t *testing.T) {
	s := CipherSpec(1, 8, 8, 4, 3)
	m := s.Build()
	p := m.Param("fc2/b")
	remote := map[string]*tensor.Tensor{"fc2/b": tensor.New(p.W.Shape...)}
	for i := range p.W.Data {
		p.W.Data[i], remote["fc2/b"].Data[i] = 1, 3
	}

	if err := m.MergeWeights(remote, 0.5); err != nil {
		t.Fatal(err)
	}
	if p.W.Data[0] != 2 { // 1 - 0.5*(1-3) = 2
		t.Fatalf("merge 0.5: got %v", p.W.Data[0])
	}
	if err := m.MergeWeights(remote, 1); err != nil {
		t.Fatal(err)
	}
	if p.W.Data[0] != 3 {
		t.Fatalf("merge 1 should replace: got %v", p.W.Data[0])
	}
	before := p.W.Data[0]
	if err := m.MergeWeights(remote, 0); err != nil {
		t.Fatal(err)
	}
	if p.W.Data[0] != before {
		t.Fatal("merge 0 should be no-op")
	}
	if err := m.MergeWeights(remote, 1.5); err == nil {
		t.Fatal("lambda > 1 must error")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	s := CipherSpec(1, 8, 8, 4, 3)
	a := s.Build()
	s2 := s
	s2.Seed = 77
	b := s2.Build()
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Param("conv1/W"), b.Param("conv1/W")
	for i := range pa.W.Data {
		if pa.W.Data[i] != pb.W.Data[i] {
			t.Fatal("weights differ after copy")
		}
	}
}

// TestWeightsEqualIsBitwise: equal after a copy, and any one word apart is
// unequal — -0 against +0 included, which == would call equal.
func TestWeightsEqualIsBitwise(t *testing.T) {
	s := CipherSpec(1, 8, 8, 4, 3)
	a, b := s.Build(), s.BuildZero()
	if a.WeightsEqual(b) {
		t.Fatal("a He init equals a zero build")
	}
	if err := b.CopyWeightsFrom(a); err != nil || !a.WeightsEqual(b) {
		t.Fatal("not equal after CopyWeightsFrom", err)
	}
	last := b.Params()[len(b.Params())-1].W.Data
	a.Params()[len(a.Params())-1].W.Data[len(last)-1] = 0
	last[len(last)-1] = float32(math.Copysign(0, -1))
	if a.WeightsEqual(b) {
		t.Fatal("-0 and +0 in the last word compare equal")
	}
}

func TestEvaluate(t *testing.T) {
	cfg := data.Config{Name: "t", NumClasses: 3, Train: 90, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.1, Jitter: 0, Bumps: 3, Seed: 5}
	train, test, err := data.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := CipherSpec(1, 8, 8, 3, 7).Build()
	acc0, _ := m.Evaluate(test, 16)
	shards, _ := data.Partition(train, 1, 1)
	for i := 0; i < 40; i++ {
		x, y := shards[0].NextBatch(30)
		m.TrainStep(x, y)
		m.ApplySGD(0.05)
	}
	acc1, loss1 := m.Evaluate(test, 16)
	if acc1 <= acc0 && acc1 < 0.6 {
		t.Fatalf("training did not improve: %v -> %v", acc0, acc1)
	}
	if loss1 <= 0 {
		t.Fatalf("loss %v", loss1)
	}
}

func TestTrainStepGradIsMean(t *testing.T) {
	// Doubling the batch by duplicating samples must leave the mean
	// gradient unchanged (Eq. 6 semantics).
	rng := stats.NewRNG(12)
	m := NewModel(tensor.NewWorkspace(), "g", NewFlatten("f"), NewDense("fc", 8, 3, rng))
	x1, y1 := smallBatch(rng, 4, 1, 2, 4, 3)
	m.TrainStep(x1, y1)
	g1 := m.Param("fc/W").G.Clone()

	x2 := tensor.New(8, 1, 2, 4)
	copy(x2.Data[:x1.Len()], x1.Data)
	copy(x2.Data[x1.Len():], x1.Data)
	y2 := append(append([]int{}, y1...), y1...)
	m.TrainStep(x2, y2)
	g2 := m.Param("fc/W").G
	for i := range g1.Data {
		if math.Abs(float64(g1.Data[i]-g2.Data[i])) > 1e-5 {
			t.Fatalf("mean gradient changed with duplicated batch at %d: %v vs %v",
				i, g1.Data[i], g2.Data[i])
		}
	}
}

// fullBackwardSpy stands in for a model's first layer and counts the calls
// to its full Backward; the wrapped layer's other methods, backwardParams
// among them, are promoted unchanged.
type fullBackwardSpy struct {
	*Conv2D
	calls int
}

func (s *fullBackwardSpy) Backward(dout *tensor.Tensor) *tensor.Tensor {
	s.calls++
	return s.Conv2D.Backward(dout)
}

// TestTrainStepSkipsDataGradient: TrainStep runs its first layer's backward
// for the parameter gradients only, so that layer's column-gradient matmul
// and Col2Im never run, and every parameter gradient equals the full
// Backward chain's bit for bit.
func TestTrainStepSkipsDataGradient(t *testing.T) {
	for _, spec := range []Spec{CipherSpec(1, 16, 16, 10, 31), MobileNetLiteSpec(3, 16, 16, 5, 32)} {
		x, y := smallBatch(stats.NewRNG(spec.Seed), 5, spec.Channels, spec.Height, spec.Width, spec.Classes)

		full := spec.Build()
		full.ZeroGrads()
		_, _, dout := softmaxCrossEntropyWS(full.ws, full.Forward(x), y)
		for i := len(full.Layers) - 1; i >= 0; i-- {
			dout = full.Layers[i].Backward(dout)
		}

		m := spec.Build()
		spy := &fullBackwardSpy{Conv2D: m.Layers[0].(*Conv2D)}
		m.Layers[0] = spy
		m.TrainStep(x, y)
		if spy.calls != 0 {
			t.Fatalf("%s: TrainStep ran the data layer's full Backward %d times", spec.Kind, spy.calls)
		}
		for i, p := range m.Params() {
			want := full.Params()[i].G
			for j, g := range p.G.Data {
				if math.Float32bits(g) != math.Float32bits(want.Data[j]) {
					t.Fatalf("%s: %s[%d] = %v, full Backward chain %v", spec.Kind, p.Name, j, g, want.Data[j])
				}
			}
		}
	}
}
