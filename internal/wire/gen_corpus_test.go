package wire

import (
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
}
