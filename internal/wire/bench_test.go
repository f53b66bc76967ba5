package wire

import (
	"testing"

	"dlion/internal/bufpool"
	"dlion/internal/grad"
	"dlion/internal/stats"
)

func benchMessage(values int) *Message {
	rng := stats.NewRNG(1)
	sel := &grad.Selection{Var: "conv1/W", Total: values * 2}
	for i := 0; i < values; i++ {
		sel.Idx = append(sel.Idx, int32(i*2))
		sel.Val = append(sel.Val, float32(rng.NormFloat64()))
	}
	return &Message{Type: TypeGradient, From: 0, To: 1, Iter: 42, LBS: 32,
		Selections: []*grad.Selection{sel}}
}

func BenchmarkEncodeGradient10k(b *testing.B) {
	m := benchMessage(10_000)
	b.SetBytes(int64(m.WireBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecodeGradient10k(b *testing.B) {
	enc := Encode(benchMessage(10_000))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDenseMessage builds a dense (Idx == nil) gradient message, the shape
// the quantized wire format compresses best.
func benchDenseMessage(values int) *Message {
	rng := stats.NewRNG(1)
	vals := make([]float32, values)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	sel := &grad.Selection{Var: "conv1/W", Total: values, Dense: vals}
	return &Message{Type: TypeGradient, From: 0, To: 1, Iter: 42, LBS: 32,
		Selections: []*grad.Selection{sel}}
}

// Quantized encode benchmarks report wire_bytes/op next to ns/op so the
// precision/bandwidth model in WIRE.md is checkable straight from the bench
// table: i8 dense must come in at ≥3x fewer bytes than f32 dense.
func BenchmarkEncodeDenseF32(b *testing.B) {
	m := benchDenseMessage(10_000)
	enc := Encode(m)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
	b.ReportMetric(float64(len(enc)), "wire_bytes/op")
}

func BenchmarkDecodeDenseF32(b *testing.B) {
	enc := Encode(benchDenseMessage(10_000))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// frameValues is the size of the model the end-to-end benchmark trains
// (≈ 340 k parameters): one dense f32 frame of 1.37 MB per iteration. The
// two frame-sized rows recycle what they produce, as the realtime node does,
// so they price the steady state and -benchmem shows what is left per frame.
const frameValues = 340_000

func BenchmarkEncodeFrameF32(b *testing.B) {
	m := benchDenseMessage(frameValues)
	b.SetBytes(int64(m.encodedLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufpool.Bytes.Put(Encode(m))
	}
}

func BenchmarkDecodeFrameF32(b *testing.B) {
	enc := Encode(benchDenseMessage(frameValues))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

func BenchmarkEncodeDenseF16(b *testing.B) {
	m := benchDenseMessage(10_000)
	grad.QuantizeAll(m.Selections, grad.PrecF16)
	enc := Encode(m)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
	b.ReportMetric(float64(len(enc)), "wire_bytes/op")
}

func BenchmarkEncodeDenseI8(b *testing.B) {
	m := benchDenseMessage(10_000)
	grad.QuantizeAll(m.Selections, grad.PrecI8)
	enc := Encode(m)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
	b.ReportMetric(float64(len(enc)), "wire_bytes/op")
}

func BenchmarkDecodeDenseI8(b *testing.B) {
	m := benchDenseMessage(10_000)
	grad.QuantizeAll(m.Selections, grad.PrecI8)
	enc := Encode(m)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireBytes(b *testing.B) {
	m := benchMessage(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.WireBytes()
	}
}
