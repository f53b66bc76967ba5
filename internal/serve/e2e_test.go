package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/serve"
)

// TestEndToEndTrainingFeedsServing is the full loop from the issue: an
// in-process broker, two real-mode training workers, and a serve instance
// subscribed to their weight broadcasts. While training runs and versions
// hot-swap, a client hammers /predict continuously; the test demands at
// least one swap beyond the initial model, zero dropped in-flight requests
// throughout, and final answers served from the newest version.
func TestEndToEndTrainingFeedsServing(t *testing.T) {
	const n = 2
	spec := nn.CipherSpec(1, 8, 8, 3, 5)
	dc := data.Config{Name: "e2e", NumClasses: 3, Train: 240, Test: 60,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Bumps: 3, Seed: 21}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	system := core.Config{
		Name:         "e2e",
		LearningRate: 0.05,
		NewSelector:  func() grad.Selector { return grad.NewMaxN(100) },
		Batch:        core.BatchConfig{InitialLBS: 8},
		Sync:         core.SyncConfig{Mode: core.SyncAsync},
	}

	broker := queue.NewBroker()
	defer broker.Close()

	// Serving side: registry seeded with the untrained model at seq 0, fed
	// by weight broadcasts on the broker.
	reg := serve.NewRegistry(spec)
	if err := reg.Publish(0, "init", spec.Build().Checkpoint()); err != nil {
		t.Fatal(err)
	}
	sub, err := broker.Subscribe(serve.WeightsChannel, 64)
	if err != nil {
		t.Fatal(err)
	}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	go reg.WatchBroadcasts(watchCtx, sub.C)

	metrics := obs.NewRegistry()
	srv, err := serve.Listen(serve.Config{
		Registry: reg, Metrics: metrics,
		MaxBatch: 8, MaxDelay: time.Millisecond, QueueDepth: 512,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Training side: two workers over broker transports.
	g, err := realtime.NewGroup(n, func(i int) (realtime.Config, error) {
		return realtime.Config{ID: i, N: n, System: system, Spec: spec,
			Shard: shards[i], Transport: realtime.NewBrokerTransport(broker, i, "")}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	trainCtx, stopTraining := context.WithTimeout(context.Background(), 4*time.Second)
	defer stopTraining()
	var trainWG sync.WaitGroup
	trainWG.Add(1)
	go func() {
		defer trainWG.Done()
		if err := g.Run(trainCtx); err != nil {
			t.Errorf("group: %v", err)
		}
	}()

	// Each worker broadcasts its checkpoint periodically, exactly as
	// dlion-worker's -serve-publish flag does: snapshot on the event loop,
	// frame with the training iteration as the version sequence, publish.
	var pubWG sync.WaitGroup
	for i := 0; i < n; i++ {
		pubWG.Add(1)
		go func(i int) {
			defer pubWG.Done()
			tick := time.NewTicker(150 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-trainCtx.Done():
					return
				case <-tick.C:
					iter, ckpt, _, err := g.Checkpoint(trainCtx, i)
					if err != nil || iter == 0 {
						continue // node stopping, or nothing trained yet
					}
					frame, _ := serve.EncodeUpdateManifest(iter, nil, ckpt) // no manifest, cannot fail
					if _, err := broker.Publish(serve.WeightsChannel, frame); err != nil {
						t.Errorf("publish: %v", err)
					}
				}
			}
		}(i)
	}

	// Client side: hammer /predict for the duration of training. Every
	// request must come back 200 — the queue is deep enough that shedding
	// would itself be a failure, and any 5xx/transport error during a swap
	// means an in-flight request was dropped.
	input := make([]float32, 1*8*8)
	for i := range input {
		input[i] = float32(i%11) / 11
	}
	body, _ := json.Marshal(serve.PredictRequest{Inputs: [][]float32{input}})
	var answered, maxSeq atomic.Int64
	clientCtx := trainCtx
	var clientWG sync.WaitGroup
	for c := 0; c < 4; c++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for clientCtx.Err() == nil {
				req, _ := http.NewRequestWithContext(clientCtx, http.MethodPost,
					srv.URL()+"/predict", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					if clientCtx.Err() == nil {
						t.Errorf("predict: %v", err)
					}
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict dropped: status %d: %s", resp.StatusCode, raw)
					return
				}
				var pr serve.PredictResponse
				if err := json.Unmarshal(raw, &pr); err != nil {
					t.Errorf("predict body: %v", err)
					return
				}
				answered.Add(1)
				if pr.ModelSeq > maxSeq.Load() {
					maxSeq.Store(pr.ModelSeq)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	clientWG.Wait()
	pubWG.Wait()
	trainWG.Wait()

	if got := answered.Load(); got == 0 {
		t.Fatal("no predictions served")
	}
	swaps := metrics.Counter("serve.swaps").Load()
	if swaps < 2 { // init at seq 0 plus at least one broadcast hot-swap
		t.Fatalf("swaps %d: server never hot-swapped off the initial model", swaps)
	}
	cur := reg.Current()
	if cur == nil || cur.Seq == 0 || cur.Source != "broadcast" {
		t.Fatalf("current version %+v: not fed from training broadcasts", cur)
	}

	// The newest version must actually be the one answering: a fresh
	// predict after training reports the registry's final sequence.
	resp, err := http.Post(srv.URL()+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelSeq != cur.Seq {
		t.Fatalf("final predict served seq %d, registry at %d", pr.ModelSeq, cur.Seq)
	}
	if maxSeq.Load() == 0 {
		t.Fatal("no in-flight request ever observed a swapped version")
	}
	t.Logf("answered %d requests across %d swaps; final seq %d",
		answered.Load(), swaps, cur.Seq)
}
