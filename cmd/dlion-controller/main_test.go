package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
)

// TestRun drives the command in process. A cancelled context is the
// signal: the controller opens its store, broker and job API, then halts
// and exits 0.
func TestRun(t *testing.T) {
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	store := filepath.Join(t.TempDir(), "jobs.json")
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  []string // what stdout must hold
	}{
		{"help", []string{"-h"}, 0, nil},
		{"bad flag", []string{"-no-such-flag"}, 2, nil},
		{"bad api address", []string{"-api", "nonsense"}, 1, nil},
		{"start and stop", []string{"-api", "127.0.0.1:0", "-broker-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0", "-store", store}, 0,
			[]string{"debug server on 127.0.0.1:", "broker listening on 127.0.0.1:",
				"job API listening on 127.0.0.1:", "shutting down: halting active jobs"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(stopped, "dlion-controller", run, tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			for _, s := range tc.out {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("stdout lacks %q:\n%s", s, stdout.String())
				}
			}
		})
	}
}
