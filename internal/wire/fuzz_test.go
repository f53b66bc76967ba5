package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dlion/internal/grad"
	"dlion/internal/tensor"
)

// seedMessages covers every message type and both selection encodings, so
// the fuzzer starts from structurally valid frames and mutates from there.
func seedMessages() []*Message {
	dense := &grad.Selection{Var: "w", Total: 4, Dense: []float32{1, -2, 3.5, 0}}
	sparse := &grad.Selection{Var: "fc1/w", Total: 8, Idx: []int32{0, 3, 7}, Val: []float32{0.1, -0.2, 0.3}}
	denseI8 := &grad.Selection{Var: "w", Total: 4, Dense: []float32{1, -2, 3.5, 0}}
	denseI8.Quantize(grad.PrecI8)
	sparseF16 := &grad.Selection{Var: "fc1/w", Total: 8, Idx: []int32{0, 3, 7}, Val: []float32{0.1, -0.2, 0.3}}
	sparseF16.Quantize(grad.PrecF16)
	sparseI8 := &grad.Selection{Var: "c/w", Total: 16, Idx: []int32{15}, Val: []float32{-0.5}}
	sparseI8.Quantize(grad.PrecI8)
	weights := map[string]*tensor.Tensor{"conv1": tensor.FromSlice([]float32{1, 2, 3}, 3)}
	return []*Message{
		{Type: TypeGradient, From: 0, To: 1, Iter: 7, LBS: 32, Selections: []*grad.Selection{dense, sparse}},
		{Type: TypeGradient, From: 2, To: 0, Iter: 1, LBS: 8, Selections: []*grad.Selection{{Var: "b", Total: 0}}},
		{Type: TypeGradient, From: 1, To: 2, Iter: 8, LBS: 16, Selections: []*grad.Selection{denseI8, sparseF16}},
		{Type: TypeGradient, From: 2, To: 1, Iter: 9, LBS: 16, Selections: []*grad.Selection{sparseI8,
			{Var: "e", Total: 3, Prec: grad.PrecF16}}},
		{Type: TypeWeights, From: 1, To: 2, Iter: 42, Weights: weights},
		{Type: TypeLossReport, From: 0, To: 1, Iter: 3, Loss: 0.25},
		{Type: TypeDKTRequest, From: 1, To: 0, Iter: 9},
		{Type: TypeRCPReport, From: 2, To: 1, Iter: 5, RCP: 0.4},
		{Type: TypeLossReport, From: 2, To: 0, Iter: 11, Loss: math.Inf(1)},
		{Type: TypeHello, From: 6, To: 0, Iter: 0, Flags: HelloNeedSync, Epoch: 3,
			Quant: 0x03},
		{Type: TypeWelcome, From: 0, To: 6, Iter: 120, Epoch: 4, GBS: 192,
			Quant: 0x01, Members: []int32{0, 1, 2, 6}, Weights: weights},
		{Type: TypeLeave, From: 3, To: 1, Iter: 88, Epoch: 5},
	}
}

// FuzzDecode asserts Decode never panics: every input either yields a
// structurally valid message or an error, and valid messages survive an
// encode/decode round trip.
func FuzzDecode(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(Encode(m))
	}
	// Adversarial seeds: empty, bare type byte, truncated header, huge
	// declared counts.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{byte(TypeGradient), 0, 0, 0, 0})
	f.Add([]byte{byte(TypeWeights), 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if m != nil {
				t.Fatal("Decode returned both a message and an error")
			}
			return
		}
		// A decoded message must re-encode to exactly the input: the format
		// has a canonical byte representation for every valid frame. Weights
		// are exempt — their map iteration order varies between encodes.
		if m.Type != TypeWeights && m.Type != TypeWelcome && !bytes.Equal(Encode(m), data) {
			t.Fatalf("re-encode mismatch for type %v", m.Type)
		}
		// A receiver applies what it decoded to the variable's weights: no
		// frame may make that panic. No input bytes back a sparse
		// selection's Total, so one past 2²⁰ gets no dst.
		for _, s := range m.Selections {
			if s.Total > 1<<20 {
				continue
			}
			if err := s.AddTo(make([]float32, s.Total), 0.5); err != nil {
				t.Fatalf("decoded selection %q does not apply: %v", s.Var, err)
			}
		}
	})
}

// TestDecodeRejectsSelectionsThatDoNotFit: the two frames that once decoded
// and then crashed the receiver's apply — a sparse index outside the
// variable, a dense vector longer than it — are corrupt, and applying such
// selections built by hand is an error, not a panic.
func TestDecodeRejectsSelectionsThatDoNotFit(t *testing.T) {
	for name, s := range map[string]*grad.Selection{
		"index -1":       {Var: "w", Total: 4, Idx: []int32{-1}, Val: []float32{1}},
		"index at total": {Var: "w", Total: 4, Idx: []int32{0, 4}, Val: []float32{1, 2}},
		"dense too long": {Var: "w", Total: 4, Dense: []float32{1, 2, 3, 4, 5}},
		"dense short":    {Var: "w", Total: 4, Dense: []float32{1, 2, 3}},
	} {
		m := &Message{Type: TypeGradient, From: 1, To: 0, Iter: 3, LBS: 8, Selections: []*grad.Selection{s}}
		if _, err := Decode(Encode(m)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode err %v, want ErrCorrupt", name, err)
		}
		if err := s.AddTo(make([]float32, s.Total), 1); err == nil {
			t.Errorf("%s: AddTo applied a selection that does not fit", name)
		}
	}
}
