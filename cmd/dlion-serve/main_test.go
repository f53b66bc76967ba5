package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dlion/cmd/internal/cli"
	"dlion/internal/lineage"
	"dlion/internal/systems"
)

// syncBuffer is an io.Writer run's output can be read from while it runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRun drives the command in process. Help, a flag that does not parse
// and the two feed-selection errors exit at once; with -ckpt-dir holding one
// checkpoint the server turns healthy, /modelz reports lineage.ModelHash of
// that checkpoint's model, and cancelling the context drains and exits 0.
func TestRun(t *testing.T) {
	const scale, seed = 0.001, 5
	model := systems.NewWorkload(scale, seed).Spec.Build()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.ckpt"), model.Checkpoint(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		want  int
		serve func(t *testing.T, base string) // checks made while serving, before the cancel
	}{
		{"help", []string{"-h"}, 0, nil},
		{"bad flag", []string{"-no-such-flag"}, 2, nil},
		{"both feeds", []string{"-ckpt-dir", dir, "-broker", "127.0.0.1:1"}, 1, nil},
		{"no feed", nil, 1, nil},
		{"checkpoint dir", []string{"-addr", "127.0.0.1:0", "-ckpt-dir", dir, "-watch-interval", "10ms",
			"-scale", "0.001", "-seed", "5"}, 0, func(t *testing.T, base string) {
			if got, want := modelzDigest(t, base), lineage.ModelHash(model); got != want {
				t.Fatalf("/modelz digest %s, want ModelHash %s", got, want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stdout, stderr syncBuffer
			exit := make(chan int, 1)
			go func() { exit <- cli.Run(ctx, "dlion-serve", run, tc.args, &stdout, &stderr) }()
			if tc.serve != nil {
				tc.serve(t, waitHealthy(t, &stdout, &stderr))
				cancel()
			}
			select {
			case got := <-exit:
				if got != tc.want {
					t.Fatalf("run(%q) = %d, want %d; stdout:\n%s\nstderr:\n%s",
						tc.args, got, tc.want, stdout.String(), stderr.String())
				}
			case <-time.After(15 * time.Second):
				t.Fatal("run did not return")
			}
		})
	}
}

// waitHealthy reads the listen address run prints and waits for /healthz
// to answer ok, returning the server's base URL.
func waitHealthy(t *testing.T, stdout, stderr *syncBuffer) string {
	t.Helper()
	serving := regexp.MustCompile(`serving on (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		m := serving.FindStringSubmatch(stdout.String())
		if m == nil {
			continue
		}
		resp, err := http.Get("http://" + m[1] + "/healthz")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
			return "http://" + m[1]
		}
	}
	t.Fatalf("not healthy in time; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	return ""
}

func modelzDigest(t *testing.T, base string) lineage.Hash {
	t.Helper()
	resp, err := http.Get(base + "/modelz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var modelz struct {
		Digest lineage.Hash `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&modelz); err != nil {
		t.Fatal(err)
	}
	return modelz.Digest
}
