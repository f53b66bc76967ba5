// Package lineage makes checkpoints self-describing: every checkpoint a
// DLion worker publishes carries a manifest committing to the exact weight
// bits (an FNV-1a content digest, the same hash family the conformance
// harness uses), the training position that produced them (iteration,
// membership epoch), the parent checkpoint they evolved from, and the
// seeded configuration that — replayed deterministically — must reproduce
// them bit-exactly. The manifest is the answer to "which weights served
// this request, and what training history produced them": serve's /modelz
// exposes the chain, the jobs store records it per worker, and dlion-audit
// re-executes the seeded segment and confirms the published digest
// (deterministic re-execution + commitment-to-weights, the practical
// verification tier gascity's verifiable-inference doc argues for).
package lineage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Schema tags a v1 manifest (the JSON "schema" field).
const Schema = "dlion.lineage.v1"

// ErrBadManifest reports a structurally invalid manifest.
var ErrBadManifest = errors.New("lineage: bad manifest")

// ErrNotReplayable reports an audit request against a manifest that carries
// no replay descriptor: its lineage chain is still verifiable link by link,
// but no deterministic re-execution can reproduce its digest.
var ErrNotReplayable = errors.New("lineage: manifest has no replay descriptor")

// Hash is a 64-bit FNV-1a content digest. It marshals as a 16-digit hex
// string: JSON numbers above 2^53 lose precision in common tooling, and hex
// digests are what operators grep for.
type Hash uint64

// String formats the digest as fixed-width hex.
func (h Hash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// MarshalJSON implements json.Marshaler (quoted hex).
func (h Hash) MarshalJSON() ([]byte, error) { return []byte(`"` + h.String() + `"`), nil }

// UnmarshalJSON implements json.Unmarshaler, accepting the quoted hex form.
func (h *Hash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("%w: digest %s", ErrBadManifest, b)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("%w: digest %q", ErrBadManifest, s)
	}
	*h = Hash(v)
	return nil
}

// Substrate names the execution substrate a replayable segment ran on.
type Substrate string

// The two deterministic substrates the conformance harness drives.
const (
	SubstrateSim      Substrate = "sim"      // discrete-event simulator (internal/cluster)
	SubstrateRealtime Substrate = "realtime" // realtime nodes over a loopback TCP broker (internal/realtime)
)

// Valid reports whether s names a known substrate.
func (s Substrate) Valid() bool { return s == SubstrateSim || s == SubstrateRealtime }

// Replay describes the deterministic training segment that produced a
// checkpoint, in enough detail for an auditor to re-execute it: the
// substrate it ran on, the worker-group size, and the exchange shape. The
// segment's length is the manifest's Iter, its seed the manifest's Seed,
// and the audited replica the manifest's Worker — replay carries only what
// the manifest does not already commit to. Replayable segments run under
// the ordered-apply discipline (core.Config.OrderedApply), which is what
// makes the digest bit-reproducible on either substrate.
type Replay struct {
	// Substrate is where the segment originally ran ("sim" or "realtime").
	// Under the ordered-apply discipline both substrates reproduce the same
	// bits, so an auditor may replay on either — or both — regardless.
	Substrate Substrate `json:"substrate"`
	// Workers is the segment's worker-group size (>= 2).
	Workers int `json:"workers"`
	// Sparse selects Max-N sparse exchange instead of dense full exchange.
	Sparse bool `json:"sparse,omitempty"`
	// Quant is the wire precision every worker sent at: "", "f16", or "i8".
	Quant string `json:"quant,omitempty"`
}

// Manifest is the signed lineage record published next to a checkpoint.
// Digest commits to the exact weight bits; Parent links to the previous
// checkpoint in this worker's chain; Iter/Epoch locate the checkpoint in
// training time; ConfigHash fingerprints the training configuration; and
// Replay (when present) makes the whole record independently verifiable by
// deterministic re-execution.
type Manifest struct {
	Schema string `json:"schema"`
	// Model is the architecture name the checkpoint restores into.
	Model string `json:"model"`
	// Digest is the combined content digest of every weight variable
	// (sorted by name; see WeightsHash).
	Digest Hash `json:"digest"`
	// Vars holds the per-variable digests, so a mismatch is attributable to
	// a single variable (the same attribution VarHashes gives).
	Vars map[string]Hash `json:"vars,omitempty"`
	// Parent is the digest of the previous checkpoint in this worker's
	// chain (0 for a root checkpoint), ParentIter its iteration.
	Parent     Hash  `json:"parent,omitempty"`
	ParentIter int64 `json:"parent_iter,omitempty"`
	// Iter is the worker's completed iteration count at snapshot time.
	Iter int64 `json:"iter"`
	// Epoch is the worker's membership epoch at snapshot time.
	Epoch int64 `json:"epoch,omitempty"`
	// Worker is the replica the checkpoint was taken from.
	Worker int `json:"worker"`
	// Job labels the control-plane job (empty for hand-launched clusters).
	Job string `json:"job,omitempty"`
	// Config is the human-readable configuration summary; ConfigHash its
	// FNV-1a fingerprint (what Fingerprint(Config) returns).
	Config     string `json:"config,omitempty"`
	ConfigHash Hash   `json:"config_hash,omitempty"`
	// Seed is the shared cluster seed (dataset, sharding, replica init).
	Seed uint64 `json:"seed,omitempty"`
	// Precision is the gradient wire precision ("f32", "f16", "int8", or
	// "auto" when per-link).
	Precision string `json:"precision,omitempty"`
	// Replay, when present, describes the deterministic segment an auditor
	// can re-execute to confirm Digest (and Parent at ParentIter).
	Replay *Replay `json:"replay,omitempty"`
}

// Input bounds every carrier enforces through Validate: real models have a
// handful of variables and short names, so anything larger is corruption or
// an attempt to bloat the retained /modelz chain.
const (
	maxVars   = 1 << 10 // entries in Vars
	maxString = 1 << 12 // bytes in any one string field or variable name
)

// Validate checks structural invariants shared by every carrier.
func (m *Manifest) Validate() error {
	if m == nil {
		return fmt.Errorf("%w: nil", ErrBadManifest)
	}
	if len(m.Vars) > maxVars {
		return fmt.Errorf("%w: %d vars, max %d", ErrBadManifest, len(m.Vars), maxVars)
	}
	for _, s := range []string{m.Schema, m.Model, m.Job, m.Config, m.Precision} {
		if len(s) > maxString {
			return fmt.Errorf("%w: %d-byte string field, max %d", ErrBadManifest, len(s), maxString)
		}
	}
	for name := range m.Vars {
		if len(name) > maxString {
			return fmt.Errorf("%w: %d-byte var name, max %d", ErrBadManifest, len(name), maxString)
		}
	}
	switch {
	case m.Schema != Schema:
		return fmt.Errorf("%w: schema %q, want %q", ErrBadManifest, m.Schema, Schema)
	case m.Model == "":
		return fmt.Errorf("%w: empty model name", ErrBadManifest)
	case m.Digest == 0:
		return fmt.Errorf("%w: zero digest", ErrBadManifest)
	case m.Iter < 0:
		return fmt.Errorf("%w: iter %d", ErrBadManifest, m.Iter)
	case m.Epoch < 0:
		return fmt.Errorf("%w: epoch %d", ErrBadManifest, m.Epoch)
	case m.Worker < 0:
		return fmt.Errorf("%w: worker %d", ErrBadManifest, m.Worker)
	case m.Parent != 0 && (m.ParentIter < 0 || m.ParentIter >= m.Iter):
		return fmt.Errorf("%w: parent iter %d not before iter %d",
			ErrBadManifest, m.ParentIter, m.Iter)
	case m.Parent == 0 && m.ParentIter != 0:
		return fmt.Errorf("%w: parent iter %d without parent digest",
			ErrBadManifest, m.ParentIter)
	}
	if m.Replay != nil {
		switch {
		case !m.Replay.Substrate.Valid():
			return fmt.Errorf("%w: replay substrate %q", ErrBadManifest, m.Replay.Substrate)
		case m.Replay.Workers < 2:
			return fmt.Errorf("%w: replay workers %d", ErrBadManifest, m.Replay.Workers)
		case m.Worker >= m.Replay.Workers:
			return fmt.Errorf("%w: worker %d outside replay group [0,%d)",
				ErrBadManifest, m.Worker, m.Replay.Workers)
		case m.Replay.Quant != "" && m.Replay.Quant != "f16" && m.Replay.Quant != "i8":
			return fmt.Errorf("%w: replay quant %q", ErrBadManifest, m.Replay.Quant)
		}
	}
	return nil
}

// Link chains m to its parent manifest: Parent and ParentIter are copied
// from the parent's Digest and Iter. A nil parent marks m a root.
func (m *Manifest) Link(parent *Manifest) {
	if parent == nil {
		m.Parent, m.ParentIter = 0, 0
		return
	}
	m.Parent, m.ParentIter = parent.Digest, parent.Iter
}

// VerifyLink checks that child extends parent: same model and worker chain,
// the child's parent digest naming the parent's content, and training time
// strictly advancing.
func VerifyLink(parent, child *Manifest) error {
	switch {
	case parent == nil || child == nil:
		return fmt.Errorf("%w: nil link end", ErrBadManifest)
	case child.Parent != parent.Digest:
		return fmt.Errorf("lineage: child parent digest %s does not name parent %s",
			child.Parent, parent.Digest)
	case child.ParentIter != parent.Iter:
		return fmt.Errorf("lineage: child parent iter %d, parent is at %d",
			child.ParentIter, parent.Iter)
	case child.Model != parent.Model:
		return fmt.Errorf("lineage: model %q extends %q", child.Model, parent.Model)
	case child.Iter <= parent.Iter:
		return fmt.Errorf("lineage: iter %d does not advance past parent %d",
			child.Iter, parent.Iter)
	}
	return nil
}

// EncodeJSON serializes the manifest (indented — manifests are small and
// read by humans in incident reviews).
func EncodeJSON(m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// DecodeJSON parses and validates a manifest produced by EncodeJSON.
// Unknown fields are rejected so a typo'd manifest fails loudly instead of
// silently losing its digest, and so is anything but whitespace after the
// object.
func DecodeJSON(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after manifest", ErrBadManifest)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
