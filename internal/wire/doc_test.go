package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlion/internal/grad"
)

// TestWireDocCoverage cross-checks WIRE.md against the implementation:
// every message type the decoder accepts must appear in the §3 table (both
// its numeric value and its String() name), and every wire precision must
// be documented. typeNames is the decoder's authoritative enumeration —
// Decode rejects anything outside it — so a new frame type added without a
// doc update fails here, which is the acceptance gate ISSUE: "WIRE.md
// covers every frame type in internal/wire".
func TestWireDocCoverage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "WIRE.md"))
	if err != nil {
		t.Fatalf("WIRE.md must exist at the repo root: %v", err)
	}
	doc := string(raw)

	// Walk the contiguous type space the iota block defines; stop at the
	// first value the decoder would reject.
	n := 0
	for ty := MsgType(1); ; ty++ {
		if _, ok := typeNames[ty]; !ok {
			break
		}
		n++
		row := fmt.Sprintf("| %d | ", uint8(ty))
		if !strings.Contains(doc, row) {
			t.Errorf("WIRE.md §3 table missing a row for type %d (%s)", uint8(ty), ty)
		}
		name := fmt.Sprintf("`%s`", ty)
		if !strings.Contains(doc, name) {
			t.Errorf("WIRE.md does not mention the wire name %s of type %d", name, uint8(ty))
		}
	}
	if n != len(typeNames) {
		t.Errorf("typeNames has %d entries but only %d are contiguous from 1 — "+
			"the doc-coverage walk missed some", len(typeNames), n)
	}
	if n == 0 {
		t.Fatal("no message types enumerated")
	}

	// Every payload precision must be documented by its String() name.
	for _, p := range []grad.Precision{grad.PrecF32, grad.PrecF16, grad.PrecI8} {
		if !strings.Contains(doc, p.String()) {
			t.Errorf("WIRE.md does not mention precision %q", p.String())
		}
	}

	// Structural constants a reader would copy into another implementation.
	for _, want := range []string{"dlion:serve:weights", "DLS2", "HelloNeedSync", "MaskAll"} {
		if !strings.Contains(doc, want) {
			t.Errorf("WIRE.md does not mention %q", want)
		}
	}
}
