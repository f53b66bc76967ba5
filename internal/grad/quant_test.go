package grad

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestF16SpecialValues pins the binary16 conversion on every IEEE edge
// class: NaN, infinities, signed zeros, subnormals, and range boundaries.
func TestF16SpecialValues(t *testing.T) {
	nan32 := float32(math.NaN())
	cases := []struct {
		name string
		in   float32
		want float32 // expected round-trip value (NaN checked separately)
	}{
		{"+zero", 0, 0},
		{"-zero", float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))},
		{"+inf", float32(math.Inf(1)), float32(math.Inf(1))},
		{"-inf", float32(math.Inf(-1)), float32(math.Inf(-1))},
		{"one", 1, 1},
		{"max-f16", 65504, 65504},
		{"overflow", 65520, float32(math.Inf(1))},
		{"big-overflow", 1e30, float32(math.Inf(1))},
		{"min-normal", 6.103515625e-05, 6.103515625e-05},            // 2^-14
		{"subnormal", 5.960464477539063e-08, 5.960464477539063e-08}, // 2^-24
		{"underflow", 1e-9, 0},
		{"-underflow", -1e-9, float32(math.Copysign(0, -1))},
		{"f32-denormal", math.Float32frombits(1), 0}, // smallest f32 subnormal
	}
	for _, tc := range cases {
		got := F16FromBits(F16Bits(tc.in))
		if math.Float32bits(got) != math.Float32bits(tc.want) {
			t.Errorf("%s: round trip %v -> %v (bits %#x), want %v",
				tc.name, tc.in, got, F16Bits(tc.in), tc.want)
		}
	}
	if got := F16FromBits(F16Bits(nan32)); !math.IsNaN(float64(got)) {
		t.Errorf("NaN round trip produced %v", got)
	}
}

// TestF16RoundTripProperty checks, over random finite inputs, that the
// f32->f16->f32 conversion is idempotent and within the binary16 relative
// error bound 2^-11 for the normal range.
func TestF16RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		// Spread across the full normal f16 range via random exponents.
		v := float32((rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(30)-15)))
		h := F16Bits(v)
		back := F16FromBits(h)
		if F16Bits(back) != h {
			t.Fatalf("not idempotent: %v -> %#x -> %v -> %#x", v, h, back, F16Bits(back))
		}
		if math.IsInf(float64(back), 0) {
			if math.Abs(float64(v)) < 65504 {
				t.Fatalf("spurious overflow: %v -> Inf", v)
			}
			continue
		}
		if math.Abs(float64(v)) >= 6.103515625e-05 { // normal f16 range
			relErr := math.Abs(float64(back-v)) / math.Abs(float64(v))
			if relErr > 1.0/2048 {
				t.Fatalf("relative error %.3g > 2^-11 for %v -> %v", relErr, v, back)
			}
		} else if math.Abs(float64(back-v)) > 5.960464477539063e-08 {
			// Subnormal range: absolute error bounded by one ulp (2^-24).
			t.Fatalf("subnormal error %v for %v -> %v", back-v, v, back)
		}
	}
}

// TestQuantizeI8Properties checks the int8 quantizer's contract: zero code
// for non-finite inputs and corrupt scales, symmetric clamping, and the
// scale/2 absolute error bound inside the representable range.
func TestQuantizeI8Properties(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	if QuantizeI8(nan, 1, 0) != 0 || QuantizeI8(inf, 1, 0) != 0 || QuantizeI8(-inf, 1, 0) != 0 {
		t.Fatal("non-finite values must quantize to the zero code")
	}
	if QuantizeI8(1, 0, 3) != 3 || QuantizeI8(1, nan, 3) != 3 || QuantizeI8(1, inf, 3) != 3 {
		t.Fatal("corrupt scales must quantize to the zero code")
	}
	if QuantizeI8(0, 1, 0) != 0 || QuantizeI8(float32(math.Copysign(0, -1)), 1, 0) != 0 {
		t.Fatal("signed zeros must quantize to 0")
	}
	if q := QuantizeI8(1e30, 1, 0); q != 127 {
		t.Fatalf("overflow clamp: got %d, want 127", q)
	}
	if q := QuantizeI8(-1e30, 1, 0); q != -127 {
		t.Fatalf("underflow clamp: got %d, want -127", q)
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		maxAbs := float32(rng.Float64()*10 + 0.01)
		scale := maxAbs / 127
		v := float32(rng.Float64()*2-1) * maxAbs
		q := QuantizeI8(v, scale, 0)
		back := DequantizeI8(q, scale, 0)
		if err := math.Abs(float64(back - v)); err > float64(scale)/2*(1+1e-5) {
			t.Fatalf("error %.4g > scale/2 = %.4g for v=%v scale=%v q=%d",
				err, scale/2, v, scale, q)
		}
	}
}

// TestSelectionQuantize covers the Selection-level contract: dense and
// sparse payloads, byte accounting, the dequantized image, idempotence,
// and NaN/Inf scrubbing.
func TestSelectionQuantize(t *testing.T) {
	nan := float32(math.NaN())
	dense := &Selection{Var: "w", Total: 6,
		Dense: []float32{0.5, -0.25, nan, float32(math.Inf(1)), 0, -1}}
	f32Bytes := dense.Bytes()
	dense.Quantize(PrecI8)
	if dense.Prec != PrecI8 || len(dense.Raw) != 6 {
		t.Fatalf("dense quantize: prec=%v codes=%d", dense.Prec, len(dense.Raw))
	}
	// maxAbs over finite values is 1 (NaN/Inf excluded), so scale = 1/127.
	if want := float32(1) / 127; dense.Scale != want {
		t.Fatalf("scale %v, want %v", dense.Scale, want)
	}
	if dense.Dense[2] != 0 || dense.Dense[3] != 0 {
		t.Fatalf("non-finite values must dequantize to 0, got %v %v", dense.Dense[2], dense.Dense[3])
	}
	if got := dense.Bytes(); got != headerBytes+6 {
		t.Fatalf("int8 dense bytes %d, want %d", got, headerBytes+6)
	}
	if f32Bytes != headerBytes+24 {
		t.Fatalf("f32 dense bytes %d, want %d", f32Bytes, headerBytes+24)
	}
	// Idempotent: a second Quantize (any precision) is a no-op.
	before := append([]byte(nil), dense.Raw...)
	dense.Quantize(PrecF16)
	if dense.Prec != PrecI8 {
		t.Fatal("re-quantizing an already-quantized selection must be a no-op")
	}
	if !bytes.Equal(dense.Raw, before) {
		t.Fatal("re-quantize mutated the payload")
	}

	sparse := &Selection{Var: "w", Total: 100,
		Idx: []int32{3, 50, 99}, Val: []float32{2, -0.5, 0.125}}
	sparse.Quantize(PrecF16)
	if sparse.Prec != PrecF16 || len(sparse.Raw) != 3*2 {
		t.Fatalf("sparse quantize: prec=%v f16 bytes=%d", sparse.Prec, len(sparse.Raw))
	}
	for k, v := range sparse.Val {
		if h := binary.LittleEndian.Uint16(sparse.Raw[2*k:]); F16FromBits(h) != v {
			t.Fatalf("Val[%d]=%v is not the dequantized image of %#x", k, v, h)
		}
	}
	if got, want := sparse.Bytes(), headerBytes+3*6; got != want {
		t.Fatalf("f16 sparse bytes %d, want %d", got, want)
	}
}

// TestQuantizeAllSavings verifies the byte-savings accounting against the
// encoding arithmetic: int8 dense is a 4x value-payload reduction.
func TestQuantizeAllSavings(t *testing.T) {
	sels := []*Selection{
		{Var: "a", Total: 1000, Dense: make([]float32, 1000)},
		{Var: "b", Total: 100, Idx: make([]int32, 10), Val: make([]float32, 10)},
	}
	for i := range sels[0].Dense {
		sels[0].Dense[i] = float32(i%13) - 6
	}
	for i := range sels[1].Val {
		sels[1].Val[i] = float32(i) - 5
	}
	before := TotalBytes(sels)
	saved := QuantizeAll(sels, PrecI8)
	after := TotalBytes(sels)
	if before-after != saved {
		t.Fatalf("saved %d but bytes dropped by %d", saved, before-after)
	}
	// dense: 4000 -> 1000; sparse: 10*8 -> 10*5.
	if want := 3000 + 30; saved != want {
		t.Fatalf("saved %d, want %d", saved, want)
	}
}
