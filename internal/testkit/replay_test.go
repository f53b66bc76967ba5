package testkit

import (
	"context"
	"testing"
	"time"

	"dlion/internal/lineage"
)

// TestOrderedBitExactAcrossSubstrates is the foundation the lineage audit
// stands on: the short, seeded segments a manifest commits to must come out
// bit-identical on the simulator and over the broker — not tolerance-close,
// identical. runBoth asserts the per-variable digests; the sparse case adds
// an odd group size the equivalence table does not cover.
func TestOrderedBitExactAcrossSubstrates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  EquivalenceConfig
	}{
		{"dense", EquivalenceConfig{N: 2, Steps: 6, Seed: 42}},
		{"sparse-3w", EquivalenceConfig{N: 3, Steps: 5, Seed: 7, Sparse: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, tc.cfg)
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
		forged.Digest, forged.Vars = lineage.Digests(weights)
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
