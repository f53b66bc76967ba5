package wire

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateSeedCorpus regenerates the committed fuzz seed corpus under
// testdata/fuzz when run with -run TestGenerateSeedCorpus -generate-corpus.
// The corpus mirrors the f.Add seeds so `go test -fuzz` starts with
// coverage of every message type even on a cold build cache.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_GENERATE_CORPUS") == "" {
		t.Skip("set WIRE_GENERATE_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range seedMessages() {
		write("FuzzDecode", fmt.Sprintf("seed-%s-%d", m.Type, i), Encode(m))
	}
	write("FuzzDecode", "seed-truncated", []byte{byte(TypeGradient), 0, 0, 0, 0})
	// The header of a message of type 6, which once meant "sync" and is now
	// unassigned: it must decode as corrupt.
	write("FuzzDecode", "seed-sync-8", []byte{6, 0, 0, 0, 0, 2, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0})
	for name, frame := range craftedFrames() {
		write("FuzzDecode", name, frame)
	}
}

// craftedFrames are length fields whose products with an element size
// overflow a 32-bit int: on a 386 build a decoder comparing n*size against
// the remaining bytes would size a buffer from them and panic. Each must
// decode as an error.
func craftedFrames() map[string][]byte {
	le := binary.LittleEndian
	header := func(t MsgType) []byte { return append([]byte{byte(t)}, make([]byte, 16)...) }
	weights := le.AppendUint32(header(TypeWeights), 1) // one entry
	weights = le.AppendUint16(weights, 0)              // empty name
	weights = le.AppendUint32(weights, 0x40000000)     // 4 GiB of values
	selection := func(flag byte, n uint32) []byte {
		b := le.AppendUint32(header(TypeGradient), 0) // LBS
		b = le.AppendUint32(b, 1)                     // one selection
		b = le.AppendUint16(b, 0)                     // empty name
		b = le.AppendUint32(b, 0)                     // total
		return le.AppendUint32(append(b, flag), n)
	}
	return map[string][]byte{
		"crafted-weights-len":  weights,
		"crafted-dense-count":  selection(selDenseBit, 0x40000000),
		"crafted-sparse-count": selection(0, 0x20000000),
	}
}
