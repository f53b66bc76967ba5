package lineage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// chained returns a valid, fully-populated manifest for mutation tests.
func chained() *Manifest {
	return &Manifest{
		Schema: Schema, Model: "cipher", Digest: 0xabc, Parent: 0xdef,
		ParentIter: 4, Iter: 10, Epoch: 2, Worker: 1, Job: "job-3",
		Config: "name=x lr=0.05", ConfigHash: Fingerprint("name=x lr=0.05"),
		Seed: 7, Precision: "f16",
		Vars: map[string]Hash{"conv1/W": 1, "conv1/b": 2},
		Replay: &Replay{
			Substrate: SubstrateSim, Workers: 2, Sparse: true, Quant: "f16",
		},
	}
}

func TestHashJSON(t *testing.T) {
	h := Hash(0xdeadbeefcafef00d)
	raw, err := h.MarshalJSON()
	if err != nil || string(raw) != `"deadbeefcafef00d"` {
		t.Fatalf("marshal: %s, %v", raw, err)
	}
	var got Hash
	if err := got.UnmarshalJSON(raw); err != nil || got != h {
		t.Fatalf("unmarshal: %s err %v", got, err)
	}
	for _, bad := range []string{`42`, `"xyz"`, `""`, `"10000000000000000"`} {
		if err := got.UnmarshalJSON([]byte(bad)); !errors.Is(err, ErrBadManifest) {
			t.Errorf("UnmarshalJSON(%s): err %v, want ErrBadManifest", bad, err)
		}
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	m := chained()
	raw, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != m.Digest || got.Parent != m.Parent || got.Iter != m.Iter ||
		got.ConfigHash != m.ConfigHash || got.Vars["conv1/b"] != 2 ||
		got.Replay == nil || got.Replay.Quant != "f16" {
		t.Fatalf("round trip drifted: %+v", got)
	}

	// Unknown fields are forgeries or version skew — never silently dropped.
	forged := strings.Replace(string(raw), `"schema"`, `"extra": 1, "schema"`, 1)
	if _, err := DecodeJSON([]byte(forged)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeJSON([]byte("{}")); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("empty object: err %v, want ErrBadManifest", err)
	}
	if _, err := DecodeJSON([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeJSON(append(raw, 'x')); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("trailing bytes: err %v, want ErrBadManifest", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Manifest){
		"bad schema":           func(m *Manifest) { m.Schema = "dlion.lineage.v0" },
		"empty model":          func(m *Manifest) { m.Model = "" },
		"zero digest":          func(m *Manifest) { m.Digest = 0 },
		"negative iter":        func(m *Manifest) { m.Iter = -1 },
		"negative epoch":       func(m *Manifest) { m.Epoch = -1 },
		"negative worker":      func(m *Manifest) { m.Worker = -1 },
		"parent not before":    func(m *Manifest) { m.ParentIter = m.Iter },
		"parent iter orphaned": func(m *Manifest) { m.Parent = 0 },
		"bad substrate":        func(m *Manifest) { m.Replay.Substrate = "cloud" },
		"one-worker replay":    func(m *Manifest) { m.Replay.Workers = 1 },
		"worker outside group": func(m *Manifest) { m.Worker = 2 },
		"bad quant":            func(m *Manifest) { m.Replay.Quant = "i4" },
		"too many vars": func(m *Manifest) {
			for i := 0; i <= 1024; i++ {
				m.Vars[fmt.Sprintf("v%d", i)] = Hash(i)
			}
		},
		"oversized string": func(m *Manifest) { m.Config = strings.Repeat("x", 4097) },
	}
	for name, mutate := range cases {
		m := chained()
		mutate(m)
		if err := m.Validate(); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: err %v, want ErrBadManifest", name, err)
		}
	}
	if err := (*Manifest)(nil).Validate(); !errors.Is(err, ErrBadManifest) {
		t.Error("nil manifest validated")
	}
	if err := chained().Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
	bare := &Manifest{Schema: Schema, Model: "m", Digest: 1}
	if err := bare.Validate(); err != nil {
		t.Errorf("bare root rejected: %v", err)
	}
}

func TestLinkAndVerify(t *testing.T) {
	root := &Manifest{Schema: Schema, Model: "cipher", Digest: 10, Iter: 3}
	mid := &Manifest{Schema: Schema, Model: "cipher", Digest: 20, Iter: 6}
	tip := &Manifest{Schema: Schema, Model: "cipher", Digest: 30, Iter: 9}
	mid.Link(root)
	tip.Link(mid)
	if mid.Parent != 10 || mid.ParentIter != 3 {
		t.Fatalf("link: %+v", mid)
	}
	if err := VerifyLink(root, mid); err != nil {
		t.Fatal(err)
	}
	if err := VerifyLink(mid, tip); err != nil {
		t.Fatal(err)
	}

	bads := map[string]func() *Manifest{
		"wrong digest": func() *Manifest { c := *mid; c.Parent = 11; return &c },
		"wrong iter":   func() *Manifest { c := *mid; c.ParentIter = 4; return &c },
		"wrong model":  func() *Manifest { c := *mid; c.Model = "other"; return &c },
		"no progress":  func() *Manifest { c := *mid; c.Iter = root.Iter; return &c },
	}
	for name, build := range bads {
		if err := VerifyLink(root, build()); err == nil {
			t.Errorf("%s: link accepted", name)
		}
	}
	if err := VerifyLink(nil, mid); !errors.Is(err, ErrBadManifest) {
		t.Errorf("nil parent: %v", err)
	}

	// Unlinking makes a root again.
	mid2 := *mid
	mid2.Link(nil)
	if mid2.Parent != 0 || mid2.ParentIter != 0 {
		t.Fatalf("unlink: %+v", mid2)
	}
}

// TestEncodeJSONRefusesInvalid: an invalid manifest is not encodable in the
// first place.
func TestEncodeJSONRefusesInvalid(t *testing.T) {
	bad := chained()
	bad.Digest = 0
	if _, err := EncodeJSON(bad); err == nil {
		t.Fatal("invalid manifest encoded")
	}
}
