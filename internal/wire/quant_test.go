package wire

import (
	"bytes"
	"math"
	"testing"

	"dlion/internal/grad"
)

// quantMsg builds a gradient message whose selections have been through
// grad.Quantize — the normal sender path.
func quantMsg(p grad.Precision) *Message {
	dense := &grad.Selection{Var: "conv1/W", Total: 6,
		Dense: []float32{0.5, -0.25, 1.5, 0, -1, 0.125}}
	sparse := &grad.Selection{Var: "fc/W", Total: 1000,
		Idx: []int32{1, 500, 999}, Val: []float32{2, -0.5, 0.75}}
	dense.Quantize(p)
	sparse.Quantize(p)
	return &Message{Type: TypeGradient, From: 1, To: 2, Iter: 9, LBS: 32,
		Selections: []*grad.Selection{dense, sparse}}
}

// TestQuantizedRoundTrip: a quantized gradient message decodes to exactly
// the sender's selections — same precision, same raw codes, same
// dequantized image — for both reduced precisions.
func TestQuantizedRoundTrip(t *testing.T) {
	for _, p := range []grad.Precision{grad.PrecF16, grad.PrecI8} {
		m := quantMsg(p)
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		assertMessageBitsEqual(t, m, got)
	}
}

// TestQuantizedWireSize pins the actual byte layout: an int8 dense payload
// costs 1 byte/value plus the 5-byte scale/zero pair, f16 sparse entries
// cost 6 bytes, and the int8 dense frame is >3x smaller than its f32 twin.
func TestQuantizedWireSize(t *testing.T) {
	mk := func(n int) *grad.Selection {
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(i%7) - 3
		}
		return &grad.Selection{Var: "W", Total: n, Dense: d}
	}
	f32 := &Message{Type: TypeGradient, LBS: 1, Selections: []*grad.Selection{mk(1000)}}
	f32Len := len(Encode(f32))

	q := mk(1000)
	q.Quantize(grad.PrecI8)
	i8 := &Message{Type: TypeGradient, LBS: 1, Selections: []*grad.Selection{q}}
	i8Len := len(Encode(i8))
	// Gradient header (type..selcount) is 25B; per-selection overhead is
	// 2+1 name, 4 total, 1 flag, 4 count (+5 scale/zero for int8).
	if want := 25 + 12 + 1*1000 + 5; i8Len != want {
		t.Fatalf("int8 frame %dB, want %d", i8Len, want)
	}
	if f32Len < 3*i8Len {
		t.Fatalf("int8 dense frame %dB not >=3x smaller than f32 %dB", i8Len, f32Len)
	}

	s := &grad.Selection{Var: "W", Total: 100, Idx: []int32{1, 2}, Val: []float32{1, -1}}
	s.Quantize(grad.PrecF16)
	enc := Encode(&Message{Type: TypeGradient, LBS: 1, Selections: []*grad.Selection{s}})
	if want := 25 + 12 + 2*6; len(enc) != want {
		t.Fatalf("f16 sparse frame %dB, want %d", len(enc), want)
	}
}

// TestQuantizedEdgeSelections covers zero-length and single-element
// quantized selections in both representations: the int8 scale/zero pair is
// present even when the payload is empty, and everything round-trips.
func TestQuantizedEdgeSelections(t *testing.T) {
	cases := []*grad.Selection{
		{Var: "e1", Total: 0, Dense: []float32{}, Prec: grad.PrecI8, Scale: 0.5},
		{Var: "e2", Total: 9, Prec: grad.PrecI8, Scale: 2}, // empty sparse
		// A dense vector holds Total values: an empty one, a zero Total.
		{Var: "e3", Total: 0, Dense: []float32{}, Prec: grad.PrecF16},
		{Var: "e4", Total: 4, Prec: grad.PrecF16}, // empty sparse
		{Var: "s1", Total: 5000, Idx: []int32{4999}, Val: []float32{-3}},
		{Var: "s2", Total: 1, Dense: []float32{0.25}},
	}
	cases[4].Quantize(grad.PrecI8)
	cases[5].Quantize(grad.PrecF16)
	m := &Message{Type: TypeGradient, From: 0, To: 1, Iter: 1, LBS: 8, Selections: cases}
	raw := Encode(m)
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	assertMessageBitsEqual(t, m, got)
	// The empty int8 selections still carried their scale through the wire.
	if got.Selections[0].Scale != 0.5 || got.Selections[1].Scale != 2 {
		t.Fatalf("empty-selection scales lost: %v %v",
			got.Selections[0].Scale, got.Selections[1].Scale)
	}
	if !bytes.Equal(Encode(got), raw) {
		t.Fatal("re-encode of decoded edge frame is not canonical")
	}
}

// TestQuantizedOnTheFlyEncoding: a selection with Prec set but no stored
// payload (Raw nil) is quantized by the encoder itself, and a decode
// yields the codes, which apply as the dequantized image.
func TestQuantizedOnTheFlyEncoding(t *testing.T) {
	s := &grad.Selection{Var: "W", Total: 3, Dense: []float32{1, -0.5, 0.25},
		Prec: grad.PrecI8, Scale: float32(1) / 127}
	m := &Message{Type: TypeGradient, LBS: 1, Selections: []*grad.Selection{s}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	gs := got.Selections[0]
	if len(gs.Raw) != 3 || gs.Raw[0] != 127 {
		t.Fatalf("on-the-fly codes %v", gs.Raw)
	}
	for i, v := range s.Dense {
		want := grad.DequantizeI8(grad.QuantizeI8(v, s.Scale, 0), s.Scale, 0)
		if got := values(gs)[i]; got != want {
			t.Fatalf("value %d: %v, want %v", i, got, want)
		}
	}
}

// TestQuantizedHostileScale: frames with non-finite or zero scales decode
// without panicking and re-encode byte-identically — the canonical-encoding
// invariant the fuzzer pins must hold for hostile dequantization params too.
func TestQuantizedHostileScale(t *testing.T) {
	s := &grad.Selection{Var: "W", Total: 2, Dense: []float32{1, 2}}
	s.Quantize(grad.PrecI8)
	m := &Message{Type: TypeGradient, LBS: 1, Selections: []*grad.Selection{s}}
	raw := Encode(m)
	// The scale f32 sits after name(2+1) + total(4) + flag(1) + count(4)
	// past the 25-byte gradient header (type..iter, LBS, selection count).
	off := 25 + 2 + 1 + 4 + 1 + 4
	for _, bits := range []uint32{0x7fc00000, 0x7f800000, 0, 0x80000000} {
		hostile := append([]byte(nil), raw...)
		hostile[off] = byte(bits)
		hostile[off+1] = byte(bits >> 8)
		hostile[off+2] = byte(bits >> 16)
		hostile[off+3] = byte(bits >> 24)
		got, err := Decode(hostile)
		if err != nil {
			t.Fatalf("scale bits %#x: %v", bits, err)
		}
		if !bytes.Equal(Encode(got), hostile) {
			t.Fatalf("scale bits %#x: re-encode not canonical", bits)
		}
	}
}

// TestSelectionFlagValidation: flag bytes beyond dense|int8<<1 are corrupt.
func TestSelectionFlagValidation(t *testing.T) {
	m := &Message{Type: TypeGradient, LBS: 1,
		Selections: []*grad.Selection{{Var: "W", Total: 1, Dense: []float32{1}}}}
	raw := Encode(m)
	flagOff := 25 + 2 + 1 + 4
	for _, bad := range []byte{6, 7, 0x10, 0xff} {
		corrupt := append([]byte(nil), raw...)
		corrupt[flagOff] = bad
		if _, err := Decode(corrupt); err == nil {
			t.Fatalf("flag %#x must be rejected", bad)
		}
	}
}

// TestMembershipQuantMask: the reserved capability byte of Hello/Welcome
// round-trips, and bits above 0x03 are rejected.
func TestMembershipQuantMask(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeHello, From: 6, To: 0, Flags: HelloNeedSync, Epoch: 2,
			Quant: 0x03},
		{Type: TypeHello, From: 6, To: 0, Epoch: 3, Quant: 0x01},
		{Type: TypeWelcome, From: 0, To: 6, Epoch: 4, GBS: 64,
			Quant: 0x02},
	} {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if got.Quant != m.Quant {
			t.Fatalf("%v: quant %#x, want %#x", m.Type, got.Quant, m.Quant)
		}
		if m.WireBytes() != len(Encode(m)) {
			t.Fatalf("%v: WireBytes %d vs encoded %d", m.Type, m.WireBytes(), len(Encode(m)))
		}
	}

	hello := Encode(&Message{Type: TypeHello, Epoch: 1})
	hello[len(hello)-1] = 0x80 // a bit above 0x03
	if _, err := Decode(hello); err == nil {
		t.Fatal("hello quant byte 0x80 must be rejected")
	}
	welcome := Encode(&Message{Type: TypeWelcome, Epoch: 1})
	welcome[1+4+4+8+8+4] = 0xf0
	if _, err := Decode(welcome); err == nil {
		t.Fatal("welcome quant byte 0xf0 must be rejected")
	}
}

// TestQuantizedApplication: after a round trip, applying a quantized
// selection reproduces the sender's dequantized image exactly — the error
// budget is spent at quantization time, not in transit.
func TestQuantizedApplication(t *testing.T) {
	src := []float32{0.5, -0.25, 1.5, 0, -1, 0.125}
	s := &grad.Selection{Var: "W", Total: 6, Dense: append([]float32(nil), src...)}
	s.Quantize(grad.PrecI8)
	m := &Message{Type: TypeGradient, LBS: 1, Selections: []*grad.Selection{s}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 6)
	if err := got.Selections[0].AddTo(dst, 1); err != nil {
		t.Fatal(err)
	}
	maxAbs := 1.5 / float64(127)
	for i := range dst {
		if dst[i] != s.Dense[i] {
			t.Fatalf("receiver value %d diverges from sender image: %v vs %v", i, dst[i], s.Dense[i])
		}
		if err := math.Abs(float64(dst[i] - src[i])); err > maxAbs/2*(1+1e-6) {
			t.Fatalf("quantization error %v exceeds scale/2 at %d", err, i)
		}
	}
}
