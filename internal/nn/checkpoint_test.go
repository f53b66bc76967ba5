package nn

import (
	"testing"

	"dlion/internal/stats"
)

func TestCheckpointRoundTrip(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 4, 3)
	a := spec.Build()
	// perturb weights so the round trip is meaningful
	rng := stats.NewRNG(5)
	for _, p := range a.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = float32(rng.NormFloat64())
		}
	}
	data := a.Checkpoint()

	b := spec.Build()
	if err := b.Restore(data); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		q := b.Params()[i]
		for k := range p.W.Data {
			if p.W.Data[k] != q.W.Data[k] {
				t.Fatalf("weight %s[%d] differs after restore", p.Name, k)
			}
		}
	}
}

func TestCheckpointResumeTraining(t *testing.T) {
	// Train, checkpoint, restore into a fresh replica, keep training: the
	// paper's periodic start/resume workflow.
	spec := CipherSpec(1, 8, 8, 3, 7)
	m := spec.Build()
	rng := stats.NewRNG(9)
	x, y := smallBatch(rng, 16, 1, 8, 8, 3)
	for i := 0; i < 30; i++ {
		m.TrainStep(x, y)
		m.ApplySGD(0.05)
	}
	lossBefore, _ := m.TrainStep(x, y)
	ck := m.Checkpoint()

	resumed := spec.Build()
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	lossResumed, _ := resumed.TrainStep(x, y)
	if lossResumed != lossBefore {
		t.Fatalf("resumed model differs: %v vs %v", lossResumed, lossBefore)
	}
	for i := 0; i < 10; i++ {
		resumed.TrainStep(x, y)
		resumed.ApplySGD(0.05)
	}
	lossAfter, _ := resumed.TrainStep(x, y)
	if lossAfter >= lossBefore {
		t.Fatalf("resumed training made no progress: %v -> %v", lossBefore, lossAfter)
	}
}

func TestRestoreErrors(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 4, 3)
	m := spec.Build()
	good := m.Checkpoint()

	if err := m.Restore(nil); err == nil {
		t.Fatal("nil data must fail")
	}
	if err := m.Restore(good[:10]); err == nil {
		t.Fatal("truncated must fail")
	}
	if err := m.Restore(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if err := m.Restore(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	// One parameter named twice and another omitted: count, names, lengths
	// and size all check out, but the omitted weights would keep stale data.
	twin := &Model{ModelName: m.ModelName, params: append([]*Param{}, m.params...)}
	twin.params[1] = twin.params[0]
	if err := m.Restore(twin.Checkpoint()); err == nil {
		t.Fatal("duplicated parameter must fail")
	}
	// wrong architecture
	other := MobileNetLiteSpec(3, 16, 16, 10, 1).Build()
	if err := other.Restore(good); err == nil {
		t.Fatal("cross-architecture restore must fail")
	}
}

func TestRestoreFuzzDoesNotPanic(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 4, 3)
	m := spec.Build()
	good := m.Checkpoint()
	rng := stats.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		b := append([]byte{}, good...)
		for f := 0; f < 1+rng.Intn(6); f++ {
			b[rng.Intn(len(b))] ^= byte(rng.Uint64())
		}
		m.Restore(b) // error or garbage weights, but never a panic
	}
}
