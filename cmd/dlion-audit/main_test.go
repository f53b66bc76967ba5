package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
	"dlion/internal/lineage"
	"dlion/internal/testkit"
)

// TestRun drives the command in process on a seeded two-worker sim
// segment: its manifest verifies, and the same manifest with one digest
// bit flipped is a verification failure, status 1.
func TestRun(t *testing.T) {
	rc := testkit.ReplayConfig{Substrate: lineage.SubstrateSim, Workers: 2, Steps: 3, Seed: 5}
	_, man, err := testkit.CheckpointSegment(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	clean, forged := filepath.Join(dir, "clean.json"), filepath.Join(dir, "forged.json")
	bad := *man
	bad.Digest ^= 1
	for path, m := range map[string]*lineage.Manifest{clean: man, forged: &bad} {
		raw, err := lineage.EncodeJSON(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  string // what stdout must hold
		err  string // what stderr must hold
	}{
		{"help", []string{"-h"}, 0, "", ""},
		{"bad flag", []string{"-no-such-flag"}, 2, "", ""},
		{"no manifest", nil, 1, "", "dlion-audit: -manifest is required"},
		{"bad substrate", []string{"-substrate", "nope", "-manifest", clean}, 1, "", "-substrate"},
		{"clean", []string{"-manifest", clean, "-substrate", "sim"}, 0, "digest " + man.Digest.String() + " verified", ""},
		{"forged", []string{"-manifest", forged, "-substrate", "sim"}, 1, "", "dlion-audit: VERIFICATION FAILED on sim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(context.Background(), "dlion-audit", run, tc.args, &stdout, &stderr)
			if got != tc.want || !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.err) {
				t.Fatalf("run(%q) = %d, want %d, stdout holding %q and stderr %q; stdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, tc.out, tc.err, stdout.String(), stderr.String())
			}
		})
	}
}
