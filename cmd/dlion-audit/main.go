// Command dlion-audit verifies checkpoint lineage by deterministic replay.
// Given a manifest (a .manifest.json sidecar, or a checkpoint path whose
// sidecar to read), it re-executes the seeded training segment the manifest
// describes — under the ordered-apply discipline, on the sim and/or the
// realtime substrate (nodes over a loopback TCP broker) — and confirms the
// published weight digest bit-exactly, including the parent digest via a
// second, truncated replay when the manifest is chained. Any divergence is a verification failure and the
// process exits nonzero.
//
// Examples:
//
//	dlion-audit -self-test                      # built-in forgery-detection check
//	dlion-audit -manifest model.ckpt            # reads model.ckpt.manifest.json
//	dlion-audit -manifest m.manifest.json -substrate sim
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dlion/internal/lineage"
	"dlion/internal/testkit"
)

func main() {
	var (
		manifest  = flag.String("manifest", "", "manifest to verify: a .manifest.json file, or a checkpoint path whose sidecar to read")
		substrate = flag.String("substrate", "both", "replay substrate: sim, realtime, or both")
		selfTest  = flag.Bool("self-test", false, "run the built-in seeded-segment + forgery-detection checks instead of auditing a file")
		timeout   = flag.Duration("timeout", 2*time.Minute, "overall replay deadline")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	subs, err := substrates(*substrate)
	if err != nil {
		fatal(err)
	}

	if *selfTest {
		if err := selfCheck(ctx, subs); err != nil {
			fatal(fmt.Errorf("dlion-audit: self-test: %w", err))
		}
		fmt.Println("dlion-audit: self-test passed: clean chain verified on", names(subs),
			"and both forgeries (mutated weight, forged parent digest) were detected")
		return
	}

	if *manifest == "" {
		fatal(fmt.Errorf("dlion-audit: -manifest is required (or run -self-test); see -h"))
	}
	man, err := loadManifest(*manifest)
	if err != nil {
		fatal(fmt.Errorf("dlion-audit: %w", err))
	}
	for _, s := range subs {
		if err := testkit.Audit(ctx, man, s); err != nil {
			fatal(fmt.Errorf("dlion-audit: VERIFICATION FAILED on %s: %w", s, err))
		}
		fmt.Printf("dlion-audit: %s: digest %s verified at iter %d (worker %d of %d)\n",
			s, man.Digest, man.Iter, man.Worker, man.Replay.Workers)
	}
}

// substrates parses the -substrate flag into the replay targets to run.
func substrates(flag string) ([]lineage.Substrate, error) {
	switch flag {
	case "sim":
		return []lineage.Substrate{lineage.SubstrateSim}, nil
	case "realtime":
		return []lineage.Substrate{lineage.SubstrateRealtime}, nil
	case "both":
		return []lineage.Substrate{lineage.SubstrateSim, lineage.SubstrateRealtime}, nil
	}
	return nil, fmt.Errorf("dlion-audit: -substrate %q (want sim, realtime, or both)", flag)
}

func names(subs []lineage.Substrate) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = string(s)
	}
	return strings.Join(parts, "+")
}

// loadManifest reads a manifest from path: the JSON sidecar itself when path
// names one (or any file that parses as a manifest), otherwise the sidecar
// next to the checkpoint at path.
func loadManifest(path string) (*lineage.Manifest, error) {
	if !strings.HasSuffix(path, lineage.FileSuffix) {
		if raw, err := os.ReadFile(path); err == nil {
			if man, err := lineage.DecodeJSON(raw); err == nil {
				return man, nil
			}
		}
		return lineage.ReadFile(path) // checkpoint path → its sidecar
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return lineage.DecodeJSON(raw)
}

// selfCheck is the end-to-end detector check the CI audit gate runs: a
// seeded parent→child segment chain must verify on every requested
// substrate, and two forgeries — a single mutated weight value with honestly
// recomputed digests, and a single-bit parent-digest flip — must both fail.
func selfCheck(ctx context.Context, subs []lineage.Substrate) error {
	rc := testkit.ReplayConfig{
		Substrate: lineage.SubstrateSim, Workers: 2, Worker: 0, Steps: 4, Seed: 11,
	}
	_, parent, err := testkit.CheckpointSegment(ctx, rc, nil)
	if err != nil {
		return fmt.Errorf("parent segment: %w", err)
	}
	crc := rc
	crc.Steps = 10
	_, child, err := testkit.CheckpointSegment(ctx, crc, parent)
	if err != nil {
		return fmt.Errorf("child segment: %w", err)
	}
	if err := lineage.VerifyLink(parent, child); err != nil {
		return err
	}
	for _, s := range subs {
		if err := testkit.Audit(ctx, child, s); err != nil {
			return fmt.Errorf("clean chain failed audit on %s: %w", s, err)
		}
		fmt.Printf("dlion-audit: self-test: clean chain verified on %s (digest %s, parent %s@%d)\n",
			s, child.Digest, child.Parent, child.ParentIter)
	}

	// Forgery 1: flip one weight value, recompute the digests honestly over
	// the mutated weights — the replay must still disagree.
	weights, err := crc.Run(ctx)
	if err != nil {
		return err
	}
	var vars []string
	for name := range weights {
		vars = append(vars, name)
	}
	sort.Strings(vars)
	weights[vars[0]].Data[0] += 1e-3
	mutated := *child
	mutated.Digest, mutated.Vars = lineage.Digests(weights)
	if err := testkit.Audit(ctx, &mutated, subs[0]); err == nil {
		return fmt.Errorf("mutated weight in %q passed audit — detector broken", vars[0])
	}
	fmt.Printf("dlion-audit: self-test: mutated weight in %q detected\n", vars[0])

	// Forgery 2: a single-bit flip in the parent digest — the truncated
	// parent replay must disagree.
	forged := *child
	forged.Parent ^= 1
	if err := testkit.Audit(ctx, &forged, subs[0]); err == nil {
		return fmt.Errorf("forged parent digest passed audit — detector broken")
	}
	fmt.Println("dlion-audit: self-test: forged parent digest detected")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
