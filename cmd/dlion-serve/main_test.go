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
	"dlion/internal/queue"
	"dlion/internal/serve"
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
// and a run with neither -broker nor -init-ckpt exit at once; with
// -init-ckpt alone the server turns healthy, /modelz reports
// lineage.ModelHash of that checkpoint's model, /statsz counts its swap,
// and cancelling the context drains and exits 0.
func TestRun(t *testing.T) {
	const scale, seed = 0.001, 5
	model := systems.NewWorkload(scale, seed).Spec.Build()
	ckpt := filepath.Join(t.TempDir(), "a.ckpt")
	if err := os.WriteFile(ckpt, model.Checkpoint(), 0o644); err != nil {
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
		{"no feed", nil, 1, nil},
		{"init checkpoint", []string{"-addr", "127.0.0.1:0", "-init-ckpt", ckpt,
			"-scale", "0.001", "-seed", "5"}, 0, func(t *testing.T, base string) {
			if got, want := modelzDigest(t, base), lineage.ModelHash(model); got != want {
				t.Fatalf("/modelz digest %s, want ModelHash %s", got, want)
			}
			if got := statszSwaps(t, base); got != 1 {
				t.Fatalf("/statsz serve.swaps %d, want 1", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runServe(t, tc.args, tc.want, tc.serve)
		})
	}
}

// TestRunServesBroadcasts runs the command against a TCP broker with no
// initial checkpoint: a manifest-carrying frame published on
// serve.WeightsChannel becomes the served version. PUB/SUB drops what is
// published before the subscription, so the frame is republished every
// 20 ms until the server turns healthy.
func TestRunServesBroadcasts(t *testing.T) {
	model := systems.NewWorkload(0.001, 5).Spec.Build()
	man := &lineage.Manifest{Schema: lineage.Schema, Model: model.ModelName,
		Digest: lineage.ModelHash(model), Iter: 7}
	frame, err := serve.EncodeUpdateManifest(man.Iter, man, model.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	broker := queue.NewBroker()
	bsrv, err := queue.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			broker.Publish(serve.WeightsChannel, frame)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	defer func() { close(stop); <-published }()
	runServe(t, []string{"-addr", "127.0.0.1:0", "-broker", bsrv.Addr(), "-scale", "0.001", "-seed", "5"}, 0,
		func(t *testing.T, base string) {
			if got := modelzDigest(t, base); got != man.Digest {
				t.Fatalf("/modelz digest %s, want the manifest's %s", got, man.Digest)
			}
		})
}

// runServe runs the command with args and expects exit status want. When
// check is set, it waits for the server to turn healthy, makes check's
// checks and cancels the run.
func runServe(t *testing.T, args []string, want int, check func(t *testing.T, base string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- cli.Run(ctx, "dlion-serve", run, args, &stdout, &stderr) }()
	if check != nil {
		check(t, waitHealthy(t, &stdout, &stderr))
		cancel()
	}
	select {
	case got := <-exit:
		if got != want {
			t.Fatalf("run(%q) = %d, want %d; stdout:\n%s\nstderr:\n%s",
				args, got, want, stdout.String(), stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return")
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

func statszSwaps(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statsz struct {
		Swaps int64 `json:"serve.swaps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
		t.Fatal(err)
	}
	return statsz.Swaps
}
