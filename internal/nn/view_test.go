package nn

import (
	"fmt"
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

// TestViewMatchesForwardBitExact: the f32 view's logits equal
// Model.Forward's bit for bit at every served batch size, on both Cipher
// geometries and on MobileNet-lite. The view is built on one set of weights
// and the model then restored from another checkpoint, so the logits match
// only if Repack refilled the packed weights in place.
func TestViewMatchesForwardBitExact(t *testing.T) {
	for _, spec := range []Spec{
		CipherSpec(1, 16, 16, 10, 3),
		CipherSpec(3, 32, 32, 10, 4),
		MobileNetLiteSpec(3, 16, 16, 100, 5),
	} {
		m := spec.Build()
		v := NewView(m)
		next := spec
		next.Seed++
		if err := m.Restore(next.Build().Checkpoint()); err != nil {
			t.Fatal(err)
		}
		v.Repack()
		rng := stats.NewRNG(spec.Seed)
		for _, batch := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 32} {
			x := randInput(rng, batch, spec.Channels, spec.Height, spec.Width)
			want := m.Forward(x).Clone()
			got := v.Forward(x)
			name := fmt.Sprintf("%s %dx%dx%d batch %d", spec.Kind, spec.Channels, spec.Height, spec.Width, batch)
			if len(got.Data) != len(want.Data) {
				t.Fatalf("%s: %d logits, want %d", name, len(got.Data), len(want.Data))
			}
			for i, w := range want.Data {
				if math.Float32bits(got.Data[i]) == math.Float32bits(w) {
					continue
				}
				t.Fatalf("%s: logit %d is %v, Model.Forward gives %v", name, i, got.Data[i], w)
			}
		}
	}
}

// TestViewSwapDoesNotAllocate: a version swap on a warmed view, Restore
// then Repack, allocates nothing.
func TestViewSwapDoesNotAllocate(t *testing.T) {
	spec := CipherSpec(1, 16, 16, 10, 6)
	ckpt := spec.Build().Checkpoint()
	m := spec.BuildZero()
	v := NewView(m)
	swap := func() {
		if err := m.Restore(ckpt); err != nil {
			t.Fatal(err)
		}
		v.Repack()
	}
	swap()
	if allocs := testing.AllocsPerRun(20, swap); allocs != 0 {
		t.Fatalf("Restore + Repack allocates %v times per swap, want 0", allocs)
	}
}
