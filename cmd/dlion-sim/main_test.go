package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
)

// TestRun drives the command in process, down to the smallest simulation:
// five virtual seconds of Homo A's six workers on a 0.1 % dataset.
func TestRun(t *testing.T) {
	report := filepath.Join(t.TempDir(), "run.json")
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  string // what stdout must hold
	}{
		{"help", []string{"-h"}, 0, ""},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"environments", []string{"-envs"}, 0, "Hetero SYS A\n"},
		{"bad horizon", []string{"-horizon", "0"}, 1, ""},
		{"unknown system", []string{"-system", "nope"}, 1, ""},
		{"smallest run", []string{"-horizon", "5", "-scale", "0.001", "-report", report}, 0,
			"run report written to " + report},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(context.Background(), "dlion-sim", run, tc.args, &stdout, &stderr)
			if got != tc.want || !strings.Contains(stdout.String(), tc.out) {
				t.Fatalf("run(%q) = %d, want %d and stdout holding %q; stdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, tc.out, stdout.String(), stderr.String())
			}
		})
	}
	if _, err := os.Stat(report); err != nil {
		t.Errorf("run report: %v", err)
	}
}
