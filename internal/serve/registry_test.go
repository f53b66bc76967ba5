package serve

import (
	"errors"
	"sync"
	"testing"

	"dlion/internal/nn"
	"dlion/internal/obs"
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
