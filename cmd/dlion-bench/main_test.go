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

// TestRun drives the command in process: the experiment listing, one
// table (table2 computes no training run) with both reports, and the
// usage errors, which exit 2.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	md, js := filepath.Join(dir, "report.md"), filepath.Join(dir, "bench.json")
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  string // what stdout must hold
	}{
		{"help", []string{"-h"}, 0, ""},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"list", []string{"-list"}, 0, "table2 "},
		{"unknown profile", []string{"-profile", "nope"}, 2, ""},
		{"unknown experiment", []string{"-exp", "nope"}, 2, ""},
		{"bad sim size", []string{"-sim", "-sim-n", "x"}, 1, ""},
		{"table2", []string{"-exp", "table2", "-out", md, "-json", js}, 0, "json report written to " + js},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(context.Background(), "dlion-bench", run, tc.args, &stdout, &stderr)
			if got != tc.want || !strings.Contains(stdout.String(), tc.out) {
				t.Fatalf("run(%q) = %d, want %d and stdout holding %q; stdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, tc.out, stdout.String(), stderr.String())
			}
		})
	}
	for _, path := range []string{md, js} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("report: %v", err)
		}
	}
}
