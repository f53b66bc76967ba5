package nn

import (
	"testing"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

func benchBatch(b *testing.B, batch int) (*tensor.Tensor, []int) {
	b.Helper()
	rng := stats.NewRNG(1)
	x := tensor.New(batch, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	return x, y
}

func benchForward(b *testing.B, batch int) {
	m := CipherSpec(1, 16, 16, 10, 1).Build()
	x, _ := benchBatch(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// benchView is benchForward through the model's inference view, the forward
// a serve runner runs.
func benchView(b *testing.B, batch int) {
	v := NewView(CipherSpec(1, 16, 16, 10, 1).Build())
	x, _ := benchBatch(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Forward(x)
	}
}

func benchTrainStep(b *testing.B, batch int) {
	m := CipherSpec(1, 16, 16, 10, 1).Build()
	x, y := benchBatch(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(x, y)
	}
}

// BenchmarkCipherForward1 is the serving shape: one request per forward.
func BenchmarkCipherForward1(b *testing.B) { benchForward(b, 1) }

func BenchmarkCipherForward32(b *testing.B) { benchForward(b, 32) }

// BenchmarkCipherServedForward1 is the serving shape through the f32 view a
// serve runner uses: Dense weights packed once, not per forward.
func BenchmarkCipherServedForward1(b *testing.B) { benchView(b, 1) }

// BenchmarkCipherServedForward8 is the view at the fill 32 clients give one
// batching runner.
func BenchmarkCipherServedForward8(b *testing.B) { benchView(b, 8) }

// BenchmarkCipherTrainStep2 is the dense-exchange training shape (LBS 2).
func BenchmarkCipherTrainStep2(b *testing.B) { benchTrainStep(b, 2) }

func BenchmarkCipherTrainStep32(b *testing.B) { benchTrainStep(b, 32) }

func BenchmarkMobileNetLiteTrainStep16(b *testing.B) {
	m := MobileNetLiteSpec(3, 16, 16, 100, 1).Build()
	rng := stats.NewRNG(2)
	x := tensor.New(16, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	y := make([]int, 16)
	for i := range y {
		y[i] = rng.Intn(100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(x, y)
	}
}

func BenchmarkApplySGD(b *testing.B) {
	m := CipherSpec(1, 16, 16, 10, 1).Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplySGD(0.001)
	}
}

func BenchmarkMergeWeights(b *testing.B) {
	m := CipherSpec(1, 16, 16, 10, 1).Build()
	remote := m.Weights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MergeWeights(remote, 0.75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReLU runs one forward and one backward of a ReLU over conv1's
// output at LBS 32 (32×10×16×16), about half of it negative.
func BenchmarkReLU(b *testing.B) {
	rng := stats.NewRNG(3)
	x := tensor.New(32, 10, 16, 16)
	dout := tensor.New(32, 10, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
		dout.Data[i] = float32(rng.NormFloat64())
	}
	r := NewReLU("relu")
	r.setWorkspace(tensor.NewWorkspace())
	r.Forward(x)
	r.Backward(dout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Forward(x)
		r.Backward(dout)
	}
}
