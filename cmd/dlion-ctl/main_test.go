package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"dlion/cmd/internal/cli"
	"dlion/internal/jobs"
	"dlion/internal/queue"
)

// TestRun drives the command in process against a job API on an httptest
// server: a job is submitted, read, listed and halted; a missing or
// unknown command is a usage error (2) and an API error status is 1.
func TestRun(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	m, err := jobs.NewManager(jobs.Config{Broker: b})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(jobs.NewAPI(m))
	defer srv.Close()

	ctl := func(t *testing.T, want int, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if got := cli.Run(context.Background(), "dlion-ctl", run, args, &stdout, &stderr); got != want {
			t.Fatalf("run(%q) = %d, want %d; stdout:\n%s\nstderr:\n%s", args, got, want, stdout.String(), stderr.String())
		}
		return stdout.String()
	}
	api := []string{"-api", srv.URL + "/"}
	t.Run("help lists flags", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if got := cli.Run(context.Background(), "dlion-ctl", run, []string{"-h"}, &stdout, &stderr); got != 0 {
			t.Fatalf("-h exited %d", got)
		}
		for _, want := range []string{"-api string", `(default "http://127.0.0.1:8081")`} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-h printed\n%s\nwant %q in it", stderr.String(), want)
			}
		}
	})
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"help", []string{"-h"}, 0},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"no command", nil, 2},
		{"unknown command", []string{"frob"}, 2},
		{"submit help", []string{"submit", "-h"}, 0},
		{"submit bad flag", []string{"submit", "-no-such-flag"}, 2},
		{"get without id", append(api, "get"), 1},
		{"unknown job", append(api, "get", "no-such-job"), 1},
		{"rejected spec", append(api, "submit", "-workers", "0"), 1},
	} {
		t.Run(tc.name, func(t *testing.T) { ctl(t, tc.want, tc.args...) })
	}

	var job jobs.Job
	out := ctl(t, 0, append(api, "submit", "-workers", "2", "-max-iters", "1000", "-scale", "0.001", "-name", "ctl")...)
	if err := json.Unmarshal([]byte(out), &job); err != nil || job.ID == "" {
		t.Fatalf("submit printed %q: %v", out, err)
	}
	for _, cmd := range []string{"get", "metrics"} {
		if out := ctl(t, 0, append(api, cmd, job.ID)...); !strings.Contains(out, job.ID) {
			t.Errorf("%s printed %q, want job %s", cmd, out, job.ID)
		}
	}
	if out := ctl(t, 0, append(api, "list")...); !strings.Contains(out, `"name": "ctl"`) {
		t.Errorf("list printed %q, want the submitted job", out)
	}
	ctl(t, 0, append(api, "halt", job.ID)...)
}
