package nn

import (
	"math"
	"testing"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// randInput fills a deterministic pseudo-image batch.
func randInput(rng *stats.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return x
}

// TestQuantModelAgreesWithFloat: the int8 stack's logits track the f32
// stack closely enough that predictions agree — the serve-path contract.
func TestQuantModelAgreesWithFloat(t *testing.T) {
	for _, spec := range []Spec{
		CipherSpec(3, 16, 16, 10, 7),
		MobileNetLiteSpec(3, 16, 16, 10, 11),
	} {
		m := spec.Build()
		qm := NewQuantView(m)
		rng := stats.NewRNG(99)
		const batch = 8
		x := randInput(rng, batch, spec.Channels, spec.Height, spec.Width)

		ref := m.Forward(x).Clone()
		got := qm.Forward(x).Clone()
		if len(ref.Data) != batch*spec.Classes || len(got.Data) != len(ref.Data) {
			t.Fatalf("%s: logit shape mismatch: %v vs %v", spec.Kind, ref.Shape, got.Shape)
		}

		// Scale-relative error: int8 per-layer quantization on an untrained
		// net keeps logits within a few percent of the activation magnitude.
		var maxAbs, maxErr float64
		for i := range ref.Data {
			if a := math.Abs(float64(ref.Data[i])); a > maxAbs {
				maxAbs = a
			}
			if e := math.Abs(float64(ref.Data[i] - got.Data[i])); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 0.1*maxAbs+0.05 {
			t.Fatalf("%s: max logit error %g vs max logit %g", spec.Kind, maxErr, maxAbs)
		}
		agree := 0
		for i := 0; i < batch; i++ {
			if argmaxRow(ref.Data[i*spec.Classes:][:spec.Classes]) ==
				argmaxRow(got.Data[i*spec.Classes:][:spec.Classes]) {
				agree++
			}
		}
		if agree < batch-1 {
			t.Fatalf("%s: only %d/%d argmax agreements", spec.Kind, agree, batch)
		}
	}
}

func argmaxRow(row []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range row {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// TestQuantModelDeterministic: repeated quantized forwards are bit-identical
// (integer accumulation plus fixed-order dequant).
func TestQuantModelDeterministic(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 4, 3)
	m := spec.Build()
	qm := NewQuantView(m)
	rng := stats.NewRNG(5)
	x := randInput(rng, 4, 1, 8, 8)
	a := qm.Forward(x).Clone()
	b := qm.Forward(x).Clone()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("logit %d differs across runs: %g vs %g", i, a.Data[i], b.Data[i])
		}
	}
}

// TestQuantModelTracksRestore: the int8 view captures the weight tensors,
// so after the model's weights change in place, Repack requantizes them:
// the repacked view answers as a view packed afresh from the new weights
// does, and restoring the original checkpoint reproduces the original
// quantized logits exactly.
func TestQuantModelTracksRestore(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 4, 3)
	m := spec.Build()
	ckptA := m.Checkpoint()
	rng := stats.NewRNG(5)
	x := randInput(rng, 2, 1, 8, 8)
	qv := NewQuantView(m)
	outA := qv.Forward(x).Clone()

	for _, p := range m.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.25
		}
	}
	qv.Repack()
	outB := qv.Forward(x).Clone()
	fresh := NewQuantView(m).Forward(x)
	for i := range outB.Data {
		if outB.Data[i] != fresh.Data[i] {
			t.Fatalf("logit %d: repacked view gives %v, a fresh view %v", i, outB.Data[i], fresh.Data[i])
		}
	}
	if err := m.Restore(ckptA); err != nil {
		t.Fatal(err)
	}
	qv.Repack()
	outC := qv.Forward(x).Clone()
	same := true
	for i := range outA.Data {
		if outA.Data[i] != outC.Data[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("repacked int8 view does not reproduce pre-perturbation logits")
	}
	diff := false
	for i := range outA.Data {
		if outA.Data[i] != outB.Data[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("perturbed weights produced identical quantized logits")
	}
}
