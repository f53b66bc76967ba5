package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRunStatus pins the exit-status rule: nil and -h are 0, a usage error
// is 2 with nothing more printed, and any other error is 1, printed once.
func TestRunStatus(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		err    error
		want   int
		stderr string
	}{
		{"success", nil, 0, ""},
		{"help", flag.ErrHelp, 0, ""},
		{"usage", ErrUsage, 2, ""},
		{"wrapped usage", fmt.Errorf("submit: %w", ErrUsage), 2, ""},
		{"failure", boom, 1, "dlion-x: boom\n"},
		{"wrapped failure", fmt.Errorf("init checkpoint: %w", boom), 1, "dlion-x: init checkpoint: boom\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			run := func(context.Context, []string, io.Writer, io.Writer) error { return tc.err }
			if got := Run(context.Background(), "dlion-x", run, nil, io.Discard, &stderr); got != tc.want || stderr.String() != tc.stderr {
				t.Fatalf("Run = %d with stderr %q, want %d with %q", got, stderr.String(), tc.want, tc.stderr)
			}
		})
	}
}

// TestParse checks that a flag set from Flags reports to stderr and hands
// the exit to the shell: -h is flag.ErrHelp, a bad flag ErrUsage.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error
	}{
		{nil, nil},
		{[]string{"-n", "3"}, nil},
		{[]string{"-h"}, flag.ErrHelp},
		{[]string{"-n", "x"}, ErrUsage},
		{[]string{"-no-such-flag"}, ErrUsage},
	} {
		var stderr bytes.Buffer
		fs := Flags("dlion-x", &stderr)
		fs.Int("n", 0, "a number")
		if err := Parse(fs, tc.args); !errors.Is(err, tc.want) {
			t.Errorf("Parse(%q) = %v, want %v", tc.args, err, tc.want)
		}
		if printed := stderr.Len() > 0; printed != (tc.want != nil) {
			t.Errorf("Parse(%q) printed %q", tc.args, stderr.String())
		}
	}
}

// TestDebug starts the debug server on an ephemeral port and stops it; an
// empty address starts nothing.
func TestDebug(t *testing.T) {
	var stdout bytes.Buffer
	stop, err := Debug("", nil, &stdout)
	if err != nil || stdout.Len() > 0 {
		t.Fatalf("Debug(\"\") = %v, printed %q", err, stdout.String())
	}
	stop()

	stop, err = Debug("127.0.0.1:0", nil, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(stdout.String()), "debug server on ")
	if !ok {
		t.Fatalf("printed %q", stdout.String())
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop()
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Fatal("debug server still answering after stop")
	}
}
