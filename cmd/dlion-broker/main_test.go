package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
)

// TestRun drives the command in process. A cancelled context is the
// signal: the broker starts, serves, and shuts down with status 0.
func TestRun(t *testing.T) {
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		args []string
		want int
		out  []string // what stdout must hold
	}{
		{"help", []string{"-h"}, 0, nil},
		{"bad flag", []string{"-no-such-flag"}, 2, nil},
		{"bad address", []string{"-addr", "nonsense"}, 1, nil},
		{"start and stop", []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, 0,
			[]string{"debug server on 127.0.0.1:", "dlion-broker listening on 127.0.0.1:", "shutting down"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(stopped, "dlion-broker", run, tc.args, &stdout, &stderr)
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
