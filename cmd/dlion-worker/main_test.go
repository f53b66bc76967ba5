package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
	"dlion/internal/queue"
)

// TestRun drives the command in process: flag and validation errors exit
// at once, a one-worker cluster on an in-process broker trains to its
// -duration (with -debug-addr, ending with its phase and byte lines), and a
// cancelled context (the signal) makes it leave first.
func TestRun(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	solo := []string{"-workers", "1", "-broker", srv.Addr(), "-scale", "0.001", "-duration", "500ms"}
	for _, tc := range []struct {
		name     string
		ctx      context.Context
		args     []string
		want     int
		out, err string // what stdout (a regexp) and stderr must hold
	}{
		{"help", context.Background(), []string{"-h"}, 0, "", ""},
		{"bad flag", context.Background(), []string{"-no-such-flag"}, 2, "", ""},
		{"no workers", context.Background(), []string{"-workers", "0"}, 1, "", "dlion-worker: -workers 0"},
		{"not a founder", context.Background(), []string{"-id", "1", "-founders", "1"}, 1, "", "is not a founder"},
		{"unknown system", context.Background(), []string{"-system", "nope"}, 1, "", "unknown system"},
		{"bad broker", context.Background(), []string{"-broker", "nonsense"}, 1, "", "missing port"},
		{"trains", context.Background(), solo, 0, "done: ", ""},
		{"debug addr", context.Background(), append(solo[:len(solo):len(solo)], "-debug-addr", "127.0.0.1:0"), 0,
			"\nphases: compute [0-9.]+s .*\nbytes: gradient 0/0 ", ""},
		{"leaves on signal", stopped, solo, 0, "signal: leaving the federation", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(tc.ctx, "dlion-worker", run, tc.args, &stdout, &stderr)
			if got != tc.want || !regexp.MustCompile(tc.out).MatchString(stdout.String()) || !strings.Contains(stderr.String(), tc.err) {
				t.Fatalf("run(%q) = %d, want %d, stdout holding %q and stderr %q; stdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, tc.out, tc.err, stdout.String(), stderr.String())
			}
		})
	}
}
