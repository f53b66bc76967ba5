package testkit

import (
	"context"
	"maps"
	"testing"
	"time"

	"dlion/internal/lineage"
)

// TestOrderedBitExactAcrossSubstrates is the foundation the lineage audit
// stands on: under the ordered-apply discipline the simulator and the
// realtime broker must produce bit-identical final weights — not
// tolerance-close, identical. Without Ordered the same workload is only
// tolerance-bounded (see equivalence_test.go), because apply order differs.
func TestOrderedBitExactAcrossSubstrates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, tc := range []struct {
		name string
		cfg  EquivalenceConfig
	}{
		{"dense", EquivalenceConfig{N: 2, Steps: 6, Seed: 42, Ordered: true}},
		{"sparse-3w", EquivalenceConfig{N: 3, Steps: 5, Seed: 7, Sparse: true, Ordered: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := RunSim(tc.cfg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			rt, err := RunRealtime(ctx, tc.cfg)
			if err != nil {
				t.Fatalf("realtime: %v", err)
			}
			for i := range sim.Weights {
				a, b := lineage.VarHashes(sim.Weights[i]), lineage.VarHashes(rt.Weights[i])
				if !maps.Equal(a, b) {
					t.Errorf("worker %d: sim and realtime digests differ: %v vs %v", i, a, b)
				}
			}
		})
	}
}

// TestOrderedPrefixProperty checks the truncation identity parent
// verification relies on: the state at iteration k of a Steps=n run equals
// the final state of a Steps=k run (same seed, same group). dlion-audit
// verifies a manifest's Parent digest by exactly this second, shorter
// replay.
func TestOrderedPrefixProperty(t *testing.T) {
	// The identity is checked through CheckpointSegment's chain: a parent at
	// iteration 4 and a child at 10 must audit cleanly, which replays both
	// lengths and compares digests.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rc := ReplayConfig{Substrate: lineage.SubstrateSim, Workers: 2, Worker: 1, Steps: 4, Seed: 11}
	_, parent, err := CheckpointSegment(ctx, rc, nil)
	if err != nil {
		t.Fatalf("parent segment: %v", err)
	}
	rc.Steps = 10
	_, child, err := CheckpointSegment(ctx, rc, parent)
	if err != nil {
		t.Fatalf("child segment: %v", err)
	}
	if err := lineage.VerifyLink(parent, child); err != nil {
		t.Fatalf("link: %v", err)
	}
	if err := Audit(ctx, child, lineage.SubstrateSim); err != nil {
		t.Fatalf("audit (sim replay, incl. parent at iter 4): %v", err)
	}
	if err := Audit(ctx, child, lineage.SubstrateRealtime); err != nil {
		t.Fatalf("audit (realtime replay): %v", err)
	}
}

// TestAuditDetectsMutation is the mutation self-test of the acceptance
// criteria: a manifest whose digest commits to weights with a single flipped
// value, or whose parent digest is forged, must fail the audit.
func TestAuditDetectsMutation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rc := ReplayConfig{Substrate: lineage.SubstrateSim, Workers: 2, Worker: 0, Steps: 5, Seed: 3}
	_, man, err := CheckpointSegment(ctx, rc, nil)
	if err != nil {
		t.Fatalf("segment: %v", err)
	}

	t.Run("clean", func(t *testing.T) {
		if err := Audit(ctx, man, lineage.SubstrateSim); err != nil {
			t.Fatalf("clean audit failed: %v", err)
		}
	})
	t.Run("mutated-weight", func(t *testing.T) {
		// Honest re-digest over dishonest weights: recompute the manifest
		// from mutated weights, as a trainer that diverged (or tampered)
		// would publish.
		weights, err := rc.Run(ctx)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		for _, tt := range weights {
			tt.Data[0] += 1e-3
			break
		}
		forged := *man
		forged.Digest = lineage.WeightsHash(weights)
		forged.Vars = lineage.VarHashes(weights)
		if err := Audit(ctx, &forged, lineage.SubstrateSim); err == nil {
			t.Fatal("audit accepted a mutated weight")
		} else {
			t.Logf("mutation detected: %v", err)
		}
	})
	t.Run("forged-parent", func(t *testing.T) {
		rc2 := rc
		rc2.Steps = 9
		_, child, err := CheckpointSegment(ctx, rc2, man)
		if err != nil {
			t.Fatalf("child segment: %v", err)
		}
		child.Parent ^= 1 // single flipped bit in the chain link
		if err := Audit(ctx, child, lineage.SubstrateSim); err == nil {
			t.Fatal("audit accepted a forged parent digest")
		} else {
			t.Logf("forgery detected: %v", err)
		}
	})
}
