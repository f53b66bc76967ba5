package lineage

import (
	"maps"
	"math"
	"runtime"
	"testing"

	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/tensor"
)

func TestTensorHashProperties(t *testing.T) {
	a := tensor.New(2, 3)
	b := tensor.New(2, 3)
	for i := range a.Data {
		a.Data[i] = float32(i) * 0.25
		b.Data[i] = float32(i) * 0.25
	}
	if TensorHash(a) != TensorHash(b) {
		t.Fatal("identical tensors hash differently")
	}

	// The shape is part of the commitment: same bytes, different layout.
	c := tensor.New(3, 2)
	copy(c.Data, a.Data)
	if TensorHash(c) == TensorHash(a) {
		t.Fatal("reshaped tensor hashes identically")
	}

	// Exact bit patterns, not float semantics: -0 and +0 compare equal as
	// floats but are distinct weight bytes, so they must hash apart.
	b.Data[0] = float32(math.Copysign(0, -1))
	a.Data[0] = 0
	if TensorHash(a) == TensorHash(b) {
		t.Fatal("-0 and +0 hash identically")
	}

	// The combined digest is independent of map iteration order but bound to
	// names: renaming a variable changes it.
	w1 := map[string]*tensor.Tensor{"x": a, "y": c}
	w2 := map[string]*tensor.Tensor{"y": c, "x": a}
	if WeightsHash(w1) != WeightsHash(w2) {
		t.Fatal("weights hash depends on map order")
	}
	w3 := map[string]*tensor.Tensor{"x": a, "z": c}
	if WeightsHash(w1) == WeightsHash(w3) {
		t.Fatal("renamed variable hashes identically")
	}

	if Fingerprint("a") == Fingerprint("b") || Fingerprint("") == Fingerprint("a") {
		t.Fatal("fingerprint collisions on trivial inputs")
	}
}

// TestDigestsOnePass: the one-pass digest pair a manifest writer uses is the
// pair the two separate helpers compute, for a model and for its weight map.
func TestDigestsOnePass(t *testing.T) {
	m := nn.CipherSpec(1, 8, 8, 3, 99).Build()
	w := m.Weights()
	want := VarHashes(w)
	md, mv := Digests(m)
	wd, wv := Digests(w)
	if md != ModelHash(m) || !maps.Equal(mv, want) {
		t.Fatalf("model: Digests = %s, %v; want %s, %v", md, mv, ModelHash(m), want)
	}
	if wd != md || !maps.Equal(wv, want) {
		t.Fatalf("weights: Digests = %s, %v; want %s, %v", wd, wv, md, want)
	}
}

// trainDigest builds a Cipher model, trains it for a few seeded steps, and
// returns the resulting weight digest plus the weights themselves.
func trainDigest(t *testing.T) (Hash, map[string]*tensor.Tensor) {
	t.Helper()
	train, _ := data.MustGenerate(data.Config{
		Name: "lineage", NumClasses: 3, Train: 96, Test: 24,
		Channels: 1, Height: 8, Width: 8, Noise: 0.35, Bumps: 3, Seed: 5,
	})
	m := nn.CipherSpec(1, 8, 8, 3, 99).Build()
	idx := make([]int, 8)
	for step := 0; step < 4; step++ {
		for i := range idx {
			idx[i] = (step*len(idx) + i) % train.Len()
		}
		x, y := train.Batch(idx)
		m.TrainStep(x, y)
		m.ApplySGD(0.05)
	}
	return ModelHash(m), m.Weights()
}

// TestZeroBuiltShellRestoresLikeBuilt pins what lets a consumer that is
// about to Restore skip the He initialization (serve's registry scratch and
// runners, jobs' final evaluation): Restore covers all the state inference
// reads, so a BuildZero shell and a Build one hold the same model afterwards.
func TestZeroBuiltShellRestoresLikeBuilt(t *testing.T) {
	train, test := data.MustGenerate(data.Config{
		Name: "lineage", NumClasses: 3, Train: 96, Test: 24,
		Channels: 1, Height: 8, Width: 8, Noise: 0.35, Bumps: 3, Seed: 5,
	})
	x, y := train.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, spec := range []nn.Spec{
		nn.CipherSpec(1, 8, 8, 3, 99),
		nn.MobileNetLiteSpec(1, 8, 8, 3, 99),
	} {
		src := spec.Build()
		for step := 0; step < 4; step++ {
			src.TrainStep(x, y)
			src.ApplySGD(0.05)
		}
		ckpt := src.Checkpoint()

		zero, built := spec.BuildZero(), spec.Build()
		if err := zero.Restore(ckpt); err != nil {
			t.Fatalf("%s: restore into BuildZero: %v", spec.Kind, err)
		}
		if err := built.Restore(ckpt); err != nil {
			t.Fatalf("%s: restore into Build: %v", spec.Kind, err)
		}
		if hz, hb, hs := ModelHash(zero), ModelHash(built), ModelHash(src); hz != hb || hz != hs {
			t.Fatalf("%s: digests %s (BuildZero) / %s (Build) / %s (source)", spec.Kind, hz, hb, hs)
		}
		az, lz := zero.Evaluate(test, 16)
		ab, lb := built.Evaluate(test, 16)
		if az != ab || lz != lb {
			t.Fatalf("%s: Evaluate %v/%v on the BuildZero shell, %v/%v on the Build one", spec.Kind, az, lz, ab, lb)
		}
	}
}

// TestDigestStableAcrossParallelism is the digest-stability property the
// audit trail rests on: the digest of a seeded training run must not depend
// on how many OS threads happened to run it.
func TestDigestStableAcrossParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var base Hash
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		digest, _ := trainDigest(t)
		if base == 0 {
			base = digest
			continue
		}
		if digest != base {
			t.Fatalf("digest %s at parallelism %d, want %s: training is not a pure function of the seed",
				digest, procs, base)
		}
	}
}

// TestQuantRoundTripChangesDigest pins down the flip side of stability: a
// quantize→dequantize pass through either wire precision perturbs weight
// bits, and the digest must *detect* that — lossy precision laundering can
// never masquerade as the original checkpoint.
func TestQuantRoundTripChangesDigest(t *testing.T) {
	base, weights := trainDigest(t)
	if got := WeightsHash(weights); got != base {
		t.Fatalf("ModelHash %s vs WeightsHash %s for the same model", base, got)
	}

	// f16 round-trip: drops mantissa bits on almost every trained value.
	f16 := map[string]*tensor.Tensor{}
	for name, w := range weights {
		c := tensor.New(w.Shape...)
		for i, v := range w.Data {
			c.Data[i] = grad.F16FromBits(grad.F16Bits(v))
		}
		f16[name] = c
	}
	if WeightsHash(f16) == base {
		t.Fatal("f16 round-trip left the digest unchanged")
	}

	// int8 round-trip: symmetric per-variable scale, the wire's i8 mode.
	i8 := map[string]*tensor.Tensor{}
	for name, w := range weights {
		var maxAbs float32
		for _, v := range w.Data {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		c := tensor.New(w.Shape...)
		for i, v := range w.Data {
			c.Data[i] = grad.DequantizeI8(grad.QuantizeI8(v, scale, 0), scale, 0)
		}
		i8[name] = c
	}
	if WeightsHash(i8) == base {
		t.Fatal("int8 round-trip left the digest unchanged")
	}

	// And the per-variable table attributes the change: at least one variable
	// digest must differ, none may be missing.
	orig, quant := VarHashes(weights), VarHashes(i8)
	changed := 0
	for name, h := range orig {
		if quant[name] != h {
			changed++
		}
	}
	if changed == 0 || len(orig) != len(quant) {
		t.Fatalf("per-variable digests missed the quantization: %d changed of %d", changed, len(orig))
	}
}
