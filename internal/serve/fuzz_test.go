package serve

import (
	"bytes"
	"errors"
	"testing"

	"dlion/internal/lineage"
	"dlion/internal/nn"
)

// FuzzDecodeUpdate feeds arbitrary bytes to the decoder that faces the
// broker: the frame header, its manifest length and the JSON manifest.
// Anything it accepts must re-frame and decode to the same seq, manifest
// digest and checkpoint, and the checkpoint it carries must validate and
// digest against the registry's layout or fail as a bad checkpoint. Corpus
// seeds live in testdata/fuzz/FuzzDecodeUpdate: a bare frame, a manifest
// frame, a truncated one, and a checkpoint whose value counts overflow a
// 32-bit int (`make conformance` runs them under GOARCH=386).
func FuzzDecodeUpdate(f *testing.F) {
	man := &lineage.Manifest{Schema: lineage.Schema, Model: "cipher", Digest: 0xfeed,
		Parent: 0xbeef, ParentIter: 3, Iter: 9, Worker: 1,
		Vars:   map[string]lineage.Hash{"fc/w": 1, "fc/b": 2},
		Replay: &lineage.Replay{Substrate: lineage.SubstrateSim, Workers: 2}}
	ckpt := []byte("DLN1 checkpoint bytes")
	bare, err := EncodeUpdateManifest(1, nil, ckpt)
	if err != nil {
		f.Fatal(err)
	}
	full, err := EncodeUpdateManifest(7, man, ckpt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	f.Add(full)
	f.Add(full[:updateHeader+10])
	valid, err := EncodeUpdateManifest(2, nil, testCkpt(f, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	layout := testSpec().Layout()
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, man, ckpt, err := DecodeUpdateAny(p)
		if err != nil {
			if !errors.Is(err, ErrBadUpdate) {
				t.Fatalf("error outside ErrBadUpdate: %v", err)
			}
			return
		}
		again, err := EncodeUpdateManifest(seq, man, ckpt)
		if err != nil {
			t.Fatalf("accepted frame does not re-frame: %v", err)
		}
		seq2, man2, ckpt2, err := DecodeUpdateAny(again)
		if err != nil {
			t.Fatalf("re-framed update does not decode: %v", err)
		}
		if seq2 != seq || (man == nil) != (man2 == nil) || !bytes.Equal(ckpt2, ckpt) {
			t.Fatalf("re-framed update drifted: seq %d → %d, manifest %v → %v",
				seq, seq2, man != nil, man2 != nil)
		}
		if man != nil && man2.Digest != man.Digest {
			t.Fatalf("manifest digest %s → %s", man.Digest, man2.Digest)
		}
		if _, err := lineage.CheckpointHash(layout, ckpt); err != nil && !errors.Is(err, nn.ErrBadCheckpoint) {
			t.Fatalf("checkpoint error outside nn.ErrBadCheckpoint: %v", err)
		}
	})
}
