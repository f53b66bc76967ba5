package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"

	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/stats"
)

// testSpec is a tiny cipher model: 3×8×8 input, 10 classes.
func testSpec() nn.Spec { return nn.CipherSpec(3, 8, 8, 10, 42) }

func testCkpt(t testing.TB, seed uint64) []byte {
	t.Helper()
	spec := testSpec()
	spec.Seed = seed
	return spec.Build().Checkpoint()
}

func TestRegistryPublishAndCurrent(t *testing.T) {
	reg := NewRegistry(testSpec())
	if reg.Current() != nil {
		t.Fatal("empty registry must have no current version")
	}
	if err := reg.Publish(1, "init", testCkpt(t, 1)); err != nil {
		t.Fatal(err)
	}
	v := reg.Current()
	if v == nil || v.Seq != 1 || v.Source != "init" {
		t.Fatalf("current %+v", v)
	}
}

func TestRegistryRejectsCorruptCheckpoint(t *testing.T) {
	reg := NewRegistry(testSpec())
	metrics := obs.NewRegistry()
	reg.SetMetrics(metrics)
	if err := reg.Publish(1, "bad", []byte("not a checkpoint")); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	// A checkpoint of a different architecture must be rejected too.
	other := nn.CipherSpec(1, 8, 8, 10, 7).Build().Checkpoint()
	if err := reg.Publish(2, "bad-arch", other); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
	if reg.Current() != nil {
		t.Fatal("rejected publishes must not install a version")
	}
	if got := metrics.Counter("serve.swap_rejected").Load(); got != 2 {
		t.Fatalf("swap_rejected %d, want 2", got)
	}
}

// Hot-swap version ordering: stale and duplicate sequence numbers must
// never roll the served model back, regardless of arrival order.
func TestRegistryVersionOrdering(t *testing.T) {
	reg := NewRegistry(testSpec())
	metrics := obs.NewRegistry()
	reg.SetMetrics(metrics)
	ckpt := testCkpt(t, 9)

	if err := reg.Publish(5, "a", ckpt); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish(3, "late", ckpt); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale publish: err %v, want ErrStaleVersion", err)
	}
	if err := reg.Publish(5, "dup", ckpt); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("duplicate publish: err %v, want ErrStaleVersion", err)
	}
	if v := reg.Current(); v.Seq != 5 || v.Source != "a" {
		t.Fatalf("current rolled back: %+v", v)
	}
	if err := reg.Publish(8, "b", ckpt); err != nil {
		t.Fatal(err)
	}
	if v := reg.Current(); v.Seq != 8 {
		t.Fatalf("current %+v, want seq 8", v)
	}
	if got := metrics.Counter("serve.swaps").Load(); got != 2 {
		t.Fatalf("swaps %d, want 2", got)
	}
	if got := metrics.Counter("serve.swap_stale").Load(); got != 2 {
		t.Fatalf("swap_stale %d, want 2", got)
	}
	if got := metrics.Gauge("serve.model_seq").Load(); got != 8 {
		t.Fatalf("model_seq %d, want 8", got)
	}
}

// Concurrent publishers racing on sequence numbers must converge on the
// maximum, with the rest reported stale — never a torn or reordered swap.
func TestRegistryConcurrentPublish(t *testing.T) {
	reg := NewRegistry(testSpec())
	ckpt := testCkpt(t, 3)
	const publishers, each = 8, 25
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := int64(p*each + i + 1)
				err := reg.Publish(seq, "w", ckpt)
				if err != nil && !errors.Is(err, ErrStaleVersion) {
					t.Errorf("publish %d: %v", seq, err)
				}
			}
		}(p)
	}
	wg.Wait()
	if v := reg.Current(); v == nil || v.Seq != publishers*each {
		t.Fatalf("current %+v, want seq %d", reg.Current(), publishers*each)
	}
}

// A frame without a manifest carries manifest length 0 and decodes to a nil
// manifest.
func TestUpdateCodecRoundTrip(t *testing.T) {
	ckpt := testCkpt(t, 5)
	frame, err := EncodeUpdateManifest(77, nil, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != updateHeader+len(ckpt) {
		t.Fatalf("bare frame is %d bytes, want %d", len(frame), updateHeader+len(ckpt))
	}
	seq, man, got, err := DecodeUpdateAny(frame)
	if err != nil || seq != 77 || man != nil {
		t.Fatalf("decode: seq %d man %v err %v", seq, man, err)
	}
	if string(got) != string(ckpt) {
		t.Fatal("checkpoint bytes mangled")
	}
	for _, bad := range [][]byte{nil, {}, []byte("DLS2"), []byte("XXXX123456780000")} {
		if _, _, _, err := DecodeUpdateAny(bad); !errors.Is(err, ErrBadUpdate) {
			t.Fatalf("DecodeUpdateAny(%q): err %v, want ErrBadUpdate", bad, err)
		}
	}
}

// TestRegistryDigestIsModelHash: the digest the registry takes straight from
// a checkpoint's bytes is lineage.ModelHash of the model that checkpoint
// restores into, for both model kinds, with NaN payloads and -0 planted in
// random places — so a manifest written from a live model verifies here.
func TestRegistryDigestIsModelHash(t *testing.T) {
	rng := stats.NewRNG(17)
	awkward := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0x80000000, 0, 0x00000001}
	for _, spec := range []nn.Spec{testSpec(), nn.MobileNetLiteSpec(3, 16, 16, 10, 5)} {
		reg := NewRegistry(spec)
		for trial := 1; trial <= 4; trial++ {
			spec.Seed = uint64(trial)
			m := spec.Build()
			for _, p := range m.Params() {
				for k := 0; k < 3; k++ {
					p.W.Data[rng.Intn(p.W.Len())] = math.Float32frombits(awkward[rng.Intn(len(awkward))])
				}
			}
			if err := reg.Publish(int64(trial), "t", m.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			restored := spec.BuildZero()
			if err := restored.Restore(reg.Current().Ckpt); err != nil {
				t.Fatal(err)
			}
			if got, want := reg.Current().Digest, lineage.ModelHash(restored); got != want || want != lineage.ModelHash(m) {
				t.Fatalf("%s trial %d: registry digest %s, ModelHash %s", spec.Kind, trial, got, want)
			}
		}
	}
}

// TestRegistryRejectionsCount: every way a checkpoint can fail the spec's
// layout is rejected before it reaches a runner and counted in
// serve.swap_rejected; a manifest that names other weights is counted in
// serve.manifest_rejects.
func TestRegistryRejectionsCount(t *testing.T) {
	good := testCkpt(t, 1)
	m := testSpec().Build()
	p0, p1 := m.Params()[0], m.Params()[1]
	le := binary.LittleEndian
	// rewrite returns a checkpoint of m with model name model and the given
	// entries, in the named-f32 layout.
	rewrite := func(model string, entries ...*nn.Param) []byte {
		b := le.AppendUint16([]byte("DLN1"), uint16(len(model)))
		b = le.AppendUint32(append(b, model...), uint32(len(entries)))
		for _, p := range entries {
			b = le.AppendUint16(b, uint16(len(p.Name)))
			b = le.AppendUint32(append(b, p.Name...), uint32(p.W.Len()))
			b = append(b, nn.LEBytes(p.W.Data)...)
		}
		return b
	}
	rest := m.Params()[2:]
	unknown := &nn.Param{Name: "nope", W: p0.W}
	short := &nn.Param{Name: p1.Name, W: p0.W}
	cases := map[string][]byte{
		"wrong model name": rewrite("other", m.Params()...),
		"unknown name":     rewrite(m.ModelName, append([]*nn.Param{p0, unknown}, rest...)...),
		"duplicate name":   rewrite(m.ModelName, append([]*nn.Param{p0, p0}, rest...)...),
		"wrong length":     rewrite(m.ModelName, append([]*nn.Param{p0, short}, rest...)...),
		"missing name":     rewrite(m.ModelName, append([]*nn.Param{p0}, rest...)...),
		"truncation":       good[:len(good)-1],
		"trailing bytes":   append(append([]byte{}, good...), 0),
	}
	if !bytes.Equal(rewrite(m.ModelName, m.Params()...), m.Checkpoint()) {
		t.Fatal("rewrite does not reproduce the checkpoint layout")
	}
	reg := NewRegistry(testSpec())
	metrics := obs.NewRegistry()
	reg.SetMetrics(metrics)
	seq := int64(0)
	for name, ckpt := range cases {
		seq++
		if err := reg.Publish(seq, name, ckpt); !errors.Is(err, nn.ErrBadCheckpoint) {
			t.Errorf("%s: err %v, want nn.ErrBadCheckpoint", name, err)
		}
	}
	if got := metrics.Counter("serve.swap_rejected").Load(); got != int64(len(cases)) {
		t.Fatalf("swap_rejected %d, want %d", got, len(cases))
	}
	man := &lineage.Manifest{Schema: lineage.Schema, Model: m.ModelName, Digest: lineage.ModelHash(m)}
	if err := reg.PublishManifest(seq+1, "forged", good, man); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("manifest of other weights: err %v, want ErrManifestMismatch", err)
	}
	if got := metrics.Counter("serve.manifest_rejects").Load(); got != 1 || reg.Current() != nil {
		t.Fatalf("manifest_rejects %d, current %v; want 1, nil", got, reg.Current())
	}
}
