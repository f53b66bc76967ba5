package wire

import (
	"bytes"
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
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		write("FuzzReadFrame", fmt.Sprintf("seed-%s-%d", m.Type, i), buf.Bytes())
	}
	write("FuzzDecode", "seed-truncated", []byte{byte(TypeGradient), 0, 0, 0, 0})
	write("FuzzReadFrame", "seed-overlong-prefix", []byte{0xff, 0xff, 0xff, 0xff})
}
