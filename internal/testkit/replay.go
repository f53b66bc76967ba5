package testkit

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dlion/internal/grad"
	"dlion/internal/lineage"
	"dlion/internal/tensor"
)

// Replay support: the bridge between the equivalence harness and lineage
// manifests. CheckpointSegment runs a seeded ordered-apply training segment
// and publishes its result as a (checkpoint, manifest) pair; Audit takes a
// manifest back, re-executes the segment it describes on a chosen substrate,
// and confirms the published digests bit-exactly. dlion-audit is a thin CLI
// over these two functions.

// ReplayConfig describes one deterministic training segment in manifest
// terms. It is the information a lineage.Manifest carries (Replay descriptor
// + Iter/Seed/Worker), expressed as the harness input that reproduces it.
type ReplayConfig struct {
	Substrate lineage.Substrate // where to execute ("sim" or "realtime")
	Workers   int               // worker-group size (>= 2)
	Worker    int               // the replica whose weights are checkpointed
	Steps     int64             // iterations per worker
	Seed      uint64            // data + partition seed (replicas init from Seed+1000)
	Sparse    bool              // Max-N sparse exchange instead of dense
	Quant     string            // wire precision: "", "f16", or "i8"
}

// equivalence translates the replay terms into the harness workload. A
// replayable segment has no leave, so it runs under ordered apply: the
// discipline that makes the digest a pure function of (config, seed, steps)
// on either substrate.
func (rc ReplayConfig) equivalence() (EquivalenceConfig, error) {
	ec := EquivalenceConfig{N: rc.Workers, Steps: rc.Steps, Seed: rc.Seed, Sparse: rc.Sparse}
	switch rc.Quant {
	case "":
	case "f16":
		ec.Quant = grad.PrecF16
	case "i8":
		ec.Quant = grad.PrecI8
	default:
		return ec, fmt.Errorf("testkit: replay quant %q", rc.Quant)
	}
	if rc.Worker < 0 || rc.Worker >= rc.Workers {
		return ec, fmt.Errorf("testkit: replay worker %d outside group [0,%d)", rc.Worker, rc.Workers)
	}
	return ec, nil
}

// Run executes the segment on the configured substrate and returns the
// audited worker's final weights.
func (rc ReplayConfig) Run(ctx context.Context) (map[string]*tensor.Tensor, error) {
	ec, err := rc.equivalence()
	if err != nil {
		return nil, err
	}
	var res *EquivalenceResult
	switch rc.Substrate {
	case lineage.SubstrateSim:
		res, err = RunSim(ec)
	case lineage.SubstrateRealtime:
		res, err = RunRealtime(ctx, ec)
	default:
		return nil, fmt.Errorf("testkit: replay substrate %q", rc.Substrate)
	}
	if err != nil {
		return nil, err
	}
	return res.Weights[rc.Worker], nil
}

// CheckpointSegment runs the segment and publishes the result: the audited
// worker's checkpoint bytes plus the lineage manifest committing to them.
// A non-nil parent chains the manifest to a previous segment's (manifests
// chain by digest; the audit verifies the parent by a second, shorter
// replay — under the ordered discipline the state at iteration k of a long
// run is bit-identical to the final state of a Steps=k run).
func CheckpointSegment(ctx context.Context, rc ReplayConfig, parent *lineage.Manifest) ([]byte, *lineage.Manifest, error) {
	ec, err := rc.equivalence()
	if err != nil {
		return nil, nil, err
	}
	weights, err := rc.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	model := ec.spec().BuildZero()
	if err := model.SetWeights(weights); err != nil {
		return nil, nil, fmt.Errorf("testkit: checkpoint segment: %w", err)
	}
	cfg := ec.workerSystem(rc.Worker).Fingerprint()
	digest, vars := lineage.Digests(model)
	man := &lineage.Manifest{
		Schema:     lineage.Schema,
		Model:      model.ModelName,
		Digest:     digest,
		Vars:       vars,
		Iter:       rc.Steps,
		Worker:     rc.Worker,
		Config:     cfg,
		ConfigHash: lineage.Fingerprint(cfg),
		Seed:       rc.Seed,
		Precision:  precisionName(rc.Quant),
		Replay: &lineage.Replay{
			Substrate: rc.Substrate,
			Workers:   rc.Workers,
			Sparse:    rc.Sparse,
			Quant:     rc.Quant,
		},
	}
	man.Link(parent)
	if err := man.Validate(); err != nil {
		return nil, nil, err
	}
	return model.Checkpoint(), man, nil
}

func precisionName(quant string) string {
	switch quant {
	case "f16":
		return "f16"
	case "i8":
		return "int8"
	}
	return "f32"
}

// Audit re-executes the segment a manifest describes on the given substrate
// and verifies every commitment bit-exactly: the combined digest, each
// per-variable digest (so a mismatch names the variable), the config
// fingerprint, and — when the manifest is chained — the parent digest, by a
// second replay truncated at ParentIter. A nil error means the manifest's
// weights are exactly what the seeded segment produces.
func Audit(ctx context.Context, man *lineage.Manifest, substrate lineage.Substrate) error {
	if err := man.Validate(); err != nil {
		return err
	}
	if man.Replay == nil {
		return lineage.ErrNotReplayable
	}
	rc := ReplayConfig{
		Substrate: substrate,
		Workers:   man.Replay.Workers,
		Worker:    man.Worker,
		Steps:     man.Iter,
		Seed:      man.Seed,
		Sparse:    man.Replay.Sparse,
		Quant:     man.Replay.Quant,
	}
	ec, err := rc.equivalence()
	if err != nil {
		return err
	}
	if man.ConfigHash != 0 {
		cfg := ec.workerSystem(rc.Worker).Fingerprint()
		if got := lineage.Fingerprint(cfg); got != man.ConfigHash {
			return fmt.Errorf("testkit: audit: config fingerprint %s, manifest commits to %s (config drift: %q)",
				got, man.ConfigHash, cfg)
		}
	}
	weights, err := rc.Run(ctx)
	if err != nil {
		return fmt.Errorf("testkit: audit replay: %w", err)
	}
	if got := lineage.WeightsHash(weights); got != man.Digest {
		return fmt.Errorf("testkit: audit: replay digest %s, manifest publishes %s%s",
			got, man.Digest, blameVars(weights, man.Vars))
	}
	if man.Parent != 0 {
		prc := rc
		prc.Steps = man.ParentIter
		pw, err := prc.Run(ctx)
		if err != nil {
			return fmt.Errorf("testkit: audit parent replay: %w", err)
		}
		if got := lineage.WeightsHash(pw); got != man.Parent {
			return fmt.Errorf("testkit: audit: parent replay digest %s at iter %d, manifest claims parent %s",
				got, man.ParentIter, man.Parent)
		}
	}
	return nil
}

// blameVars names the variables whose per-variable digests disagree with the
// replayed weights — empty when the manifest carried no Vars map.
func blameVars(weights map[string]*tensor.Tensor, vars map[string]lineage.Hash) string {
	if len(vars) == 0 {
		return ""
	}
	got := lineage.VarHashes(weights)
	var bad []string
	for name, h := range got {
		if vars[name] != h {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return " (per-variable digests all agree: combined-digest forgery)"
	}
	sort.Strings(bad)
	return " (diverging variables: " + strings.Join(bad, ", ") + ")"
}
