package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dlion/internal/lineage"
	"dlion/internal/obs"
)

// manifestFor builds the lineage manifest a trainer would publish with the
// given checkpoint: digest recomputed from a restored replica, so it
// genuinely commits to the bytes.
func manifestFor(t testing.TB, ckpt []byte, iter int64) *lineage.Manifest {
	t.Helper()
	m := testSpec().Build()
	if err := m.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	return &lineage.Manifest{
		Schema: lineage.Schema,
		Model:  m.ModelName,
		Digest: lineage.ModelHash(m),
		Iter:   iter,
		Worker: 0,
	}
}

func TestPublishManifestVerifiesDigest(t *testing.T) {
	reg := NewRegistry(testSpec())
	metrics := obs.NewRegistry()
	reg.SetMetrics(metrics)
	ckpt := testCkpt(t, 4)
	man := manifestFor(t, ckpt, 10)

	if err := reg.PublishManifest(1, "test", ckpt, man); err != nil {
		t.Fatalf("honest manifest rejected: %v", err)
	}
	if v := reg.Current(); v.Manifest == nil || v.Digest != man.Digest {
		t.Fatalf("version lost its manifest: %+v", v)
	}

	// A manifest whose digest does not name these weights must never land.
	forged := *man
	forged.Digest ^= 1
	forged.Iter = 20
	if err := reg.PublishManifest(2, "test", ckpt, &forged); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("forged digest: err %v, want ErrManifestMismatch", err)
	}
	if got := metrics.Counter("serve.manifest_rejects").Load(); got != 1 {
		t.Fatalf("manifest_rejects %d, want 1", got)
	}
	if v := reg.Current(); v.Seq != 1 {
		t.Fatalf("forged publish advanced the registry: %+v", v)
	}

	// The chain records both the bare digest and the manifest.
	chain := reg.Chain()
	if len(chain) != 1 || chain[0].Digest != man.Digest || chain[0].Manifest == nil {
		t.Fatalf("chain %+v", chain)
	}
}

func TestUpdateManifestCodecRoundTrip(t *testing.T) {
	ckpt := testCkpt(t, 5)
	man := manifestFor(t, ckpt, 7)
	frame, err := EncodeUpdateManifest(42, man, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	seq, gotMan, gotCkpt, err := DecodeUpdateAny(frame)
	if err != nil || seq != 42 {
		t.Fatalf("decode: seq %d err %v", seq, err)
	}
	if gotMan == nil || gotMan.Digest != man.Digest || gotMan.Iter != 7 {
		t.Fatalf("manifest mangled: %+v", gotMan)
	}
	if string(gotCkpt) != string(ckpt) {
		t.Fatal("checkpoint bytes mangled")
	}

	// The manifest slot holds exactly what the sidecars and /modelz carry.
	js, err := lineage.EncodeJSON(man)
	if err != nil {
		t.Fatal(err)
	}
	if got := frame[updateHeader : updateHeader+len(js)]; string(got) != string(js) {
		t.Fatalf("manifest slot %q, want lineage.EncodeJSON's %q", got, js)
	}
	for _, bad := range [][]byte{nil, {}, []byte("DLS2"), []byte("DLS2123456789012"), frame[:20]} {
		if _, _, _, err := DecodeUpdateAny(bad); err == nil {
			t.Fatalf("DecodeUpdateAny(%q) accepted", bad)
		}
	}
}

// TestWatchDirRejectsTornCheckpoint is the mid-write regression test: a
// zero-length file and a truncated (partially-written) checkpoint must
// never produce a swap attempt, and the completed file must still be picked
// up afterward even though its earlier torn form was seen and skipped.
func TestWatchDirRejectsTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(testSpec())
	metrics := obs.NewRegistry()
	reg.SetMetrics(metrics)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.WatchDir(ctx, dir, 5*time.Millisecond)
	}()

	path := filepath.Join(dir, "model.ckpt")
	full := testCkpt(t, 11)

	// Phase 1: zero-length file (a writer just created it).
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if reg.Current() != nil {
		t.Fatal("zero-length checkpoint was published")
	}

	// Phase 2: mid-write — a valid prefix with the tail missing.
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if reg.Current() != nil {
		t.Fatal("torn checkpoint was published")
	}
	// Structural rejection happens before Publish, so no swap was attempted.
	if got := metrics.Counter("serve.swap_rejected").Load(); got != 0 {
		t.Fatalf("swap_rejected %d: torn file reached the registry", got)
	}

	// Phase 3: the write completes (with a sidecar manifest) — the same
	// file name must now be picked up.
	// The sidecar lands first: the watcher polls, and a checkpoint it sees
	// complete before its sidecar exists is published without a manifest.
	man := manifestFor(t, full, 3)
	if err := lineage.WriteFile(path, man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Current() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	v := reg.Current()
	if v == nil {
		t.Fatal("completed checkpoint never published")
	}
	if v.Digest != man.Digest {
		t.Fatalf("published digest %s, want %s", v.Digest, man.Digest)
	}
	if v.Manifest == nil || v.Manifest.Iter != 3 {
		t.Fatalf("sidecar manifest not attached: %+v", v.Manifest)
	}
	cancel()
	<-done
}

// TestModelzConcurrentSwaps hot-swaps manifest-carrying versions while
// hammering /modelz: every response must expose a strictly-increasing,
// digest-consistent chain, and no response may ever show a half-published
// entry (manifest present but digest disagreeing, or seq out of order).
// Run under -race this also proves the chain copy has no data races.
func TestModelzConcurrentSwaps(t *testing.T) {
	reg := NewRegistry(testSpec())
	srv, err := NewServer(Config{Registry: reg, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	const versions = 40
	ckpts := make([][]byte, versions)
	mans := make([]*lineage.Manifest, versions)
	for i := range ckpts {
		ckpts[i] = testCkpt(t, uint64(100+i))
		mans[i] = manifestFor(t, ckpts[i], int64(i+1))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- "modelz: " + fmt.Sprintf(format, args...):
		default:
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/modelz", nil))
				if rec.Code != 200 {
					continue // no version published yet
				}
				var body struct {
					Seq   int64 `json:"seq"`
					Chain []struct {
						Seq      int64             `json:"seq"`
						Digest   lineage.Hash      `json:"digest"`
						Manifest *lineage.Manifest `json:"manifest"`
					} `json:"chain"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					report("bad body: %v", err)
					return
				}
				last := int64(0)
				for _, e := range body.Chain {
					if e.Seq <= last {
						report("chain not strictly increasing: %d after %d", e.Seq, last)
						return
					}
					last = e.Seq
					if e.Digest == 0 {
						report("half-published entry: zero digest at seq %d", e.Seq)
						return
					}
					if e.Manifest != nil && e.Manifest.Digest != e.Digest {
						report("half-published entry: manifest %s vs digest %s",
							e.Manifest.Digest, e.Digest)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < versions; i++ {
		if err := reg.PublishManifest(int64(i+1), "swap", ckpts[i], mans[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := len(reg.Chain()); got != versions {
		t.Fatalf("chain length %d, want %d", got, versions)
	}
}
