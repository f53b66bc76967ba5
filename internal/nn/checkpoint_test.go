package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"dlion/internal/stats"
	"dlion/internal/tensor"
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

// TestCheckpointBytesPinned: a checkpoint's bytes are a pure function of
// the model — the same layout, byte for byte, for both model kinds,
// including a NaN payload and -0. The digests were taken from the
// checkpoint writer the named-f32 layout replaced.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		size int
		sum  string
	}{
		{CipherSpec(3, 16, 16, 10, 7), 1369778,
			"806f1ee18711afab2af28c76d394909222694f252af3b5018f4984676d076fbc"},
		{MobileNetLiteSpec(3, 16, 16, 10, 11), 268060,
			"9f428fe0708a2517ad64e2898f9853c208cb322b5dd46095cea83c8f6069e3ba"},
	} {
		m := c.spec.Build()
		w := m.Params()[0].W.Data
		w[0] = float32(math.Copysign(0, -1))
		w[1] = math.Float32frombits(0x7fc12345)
		ck := m.Checkpoint()
		if sum := fmt.Sprintf("%x", sha256.Sum256(ck)); len(ck) != c.size || sum != c.sum {
			t.Errorf("%s: checkpoint is %d bytes, sha256 %s; want %d, %s", c.spec.Kind, len(ck), sum, c.size, c.sum)
		}
	}
}

// TestMobileNetLiteTrainBitExact pins a trained MobileNet-lite: a few
// seeded TrainStep+ApplySGD rounds at LBS 16 and at LBS 1 (the shapes the
// depthwise, pointwise and pooling kernels see differ) must end in the same
// checkpoint bytes on every host. `make conformance` runs it under
// GOARCH=386 on the portable kernels too. The digests were taken before any
// kernel change they now guard.
func TestMobileNetLiteTrainBitExact(t *testing.T) {
	spec := MobileNetLiteSpec(3, 16, 16, 10, 11)
	for _, c := range []struct {
		lbs int
		sum string
	}{
		{16, "da21d40849674aae2fb71fdc42ea605b1b29588541a09a93ec9a83c68674b953"},
		{1, "2ec571b6b15760920d23f1d51bb8ca31a790bb5530e9e03a2b5ebe4ae0a10832"},
	} {
		m := spec.Build()
		rng := stats.NewRNG(uint64(40 + c.lbs))
		x := tensor.New(c.lbs, spec.Channels, spec.Height, spec.Width)
		y := make([]int, c.lbs)
		for step := 0; step < 3; step++ {
			for i := range x.Data {
				x.Data[i] = float32(rng.NormFloat64())
			}
			for i := range y {
				y[i] = rng.Intn(spec.Classes)
			}
			m.TrainStep(x, y)
			m.ApplySGD(0.05)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(m.Checkpoint())); sum != c.sum {
			t.Errorf("LBS %d: trained checkpoint sha256 %s, want %s", c.lbs, sum, c.sum)
		}
	}
}

// craftedCheckpoint is a checkpoint of model whose unnamed entries declare
// lens values each.
func craftedCheckpoint(model string, lens ...uint32) []byte {
	le := binary.LittleEndian
	b := appendString(append([]byte{}, checkpointMagic[:]...), model)
	b = le.AppendUint32(b, uint32(len(lens)))
	for _, n := range lens {
		b = le.AppendUint32(le.AppendUint16(b, 0), n)
	}
	return b
}

// TestScanRestoreRejectCraftedLengths: value counts whose byte size
// overflows a 32-bit int, and a count the bytes cannot hold, are errors on
// every host. `make conformance` runs this under GOARCH=386, where a reader
// that multiplied before comparing sliced out of range.
func TestScanRestoreRejectCraftedLengths(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 4, 3)
	m := spec.Build()
	empty := craftedCheckpoint(m.ModelName)
	for name, data := range map[string][]byte{
		"two 2 GiB entries": craftedCheckpoint(m.ModelName, 0x20000000, 0x20000000),
		"one 4 GiB entry":   craftedCheckpoint(m.ModelName, 0x40000000),
		"max length":        craftedCheckpoint(m.ModelName, 0xffffffff),
		"count past bytes":  binary.LittleEndian.AppendUint32(empty[:len(empty)-4], 0xffffffff),
	} {
		if err := spec.Layout().Read(data, func(string, []int, []byte) {}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Layout.Read err %v", name, err)
		}
		if err := m.Restore(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Restore err %v", name, err)
		}
	}
}

// TestReadWeightsRejectsDuplicateNames: a name given twice is rejected
// before the second entry reaches the caller, so no reader keeps either
// copy silently.
func TestReadWeightsRejectsDuplicateNames(t *testing.T) {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 2)
	for i := 0; i < 2; i++ {
		b = appendString(b, "w")
		b = le.AppendUint32(b, 1)
		b = le.AppendUint32(b, math.Float32bits(float32(i)))
	}
	calls := 0
	_, err := ReadWeights(b, func(string, []byte) error { calls++; return nil })
	if !errors.Is(err, ErrBadCheckpoint) || calls != 1 {
		t.Fatalf("err %v after %d entries; want ErrBadCheckpoint after 1", err, calls)
	}
}

// TestBlockCopyMatchesPerElement: the one-copy path a little-endian host
// takes for value blocks produces and accepts exactly the bytes of the
// per-element path a big-endian host takes, down to NaN payloads and the
// sign of zero, in LEBytes, FromLE and a checkpoint round trip.
func TestBlockCopyMatchesPerElement(t *testing.T) {
	if !hostLE {
		t.Skip("big-endian host: the per-element path is the only one")
	}
	bits := []uint32{0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0x7fbfffff,
		0, 0x80000000, 1, 0x807fffff, 0x7f800000, 0xff800000, 0x3f800000}
	vals := make([]float32, len(bits))
	for i, b := range bits {
		vals[i] = math.Float32frombits(b)
	}
	perElement := func(fn func()) {
		hostLE = false
		defer func() { hostLE = true }()
		fn()
	}
	block := append([]byte(nil), LEBytes(vals)...)
	var loop []byte
	perElement(func() { loop = LEBytes(vals) })
	if !bytes.Equal(block, loop) {
		t.Fatal("LEBytes: block copy differs from per-element words")
	}
	got, gotLoop := make([]float32, len(vals)), make([]float32, len(vals))
	FromLE(got, block)
	perElement(func() { FromLE(gotLoop, block) })
	for i := range vals {
		if math.Float32bits(got[i]) != bits[i] || math.Float32bits(gotLoop[i]) != bits[i] {
			t.Fatalf("FromLE[%d]: block %#x, per-element %#x, want %#x",
				i, math.Float32bits(got[i]), math.Float32bits(gotLoop[i]), bits[i])
		}
	}
	m := CipherSpec(1, 8, 8, 4, 3).Build()
	copy(m.Params()[0].W.Data, vals)
	ck := m.Checkpoint()
	var ckLoop []byte
	perElement(func() { ckLoop = m.Checkpoint() })
	if !bytes.Equal(ck, ckLoop) {
		t.Fatal("Checkpoint: block copy differs from per-element words")
	}
	r := CipherSpec(1, 8, 8, 4, 3).BuildZero()
	var err error
	perElement(func() { err = r.Restore(ck) })
	if err != nil || !r.WeightsEqual(m) {
		t.Fatalf("per-element Restore: err %v, weights equal %v", err, r.WeightsEqual(m))
	}
}
