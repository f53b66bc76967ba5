// Serving: close the paper's train-near-data loop by standing up the whole
// pipeline in one process — an in-process broker, two real-mode training
// workers broadcasting checkpoints, and an inference server that hot-swaps
// to each new version while answering /predict with dynamic micro-batching.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"dlion"
)

func main() {
	const (
		n        = 2
		duration = 6 * time.Second
	)

	broker := dlion.NewBroker()
	defer broker.Close()

	// Shared dataset and spec, exactly as the workers would derive them.
	dc := dlion.CipherDataConfig(0.02, 11)
	train, _, err := dlion.GenerateData(dc)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := dlion.PartitionData(train, n, 1)
	if err != nil {
		log.Fatal(err)
	}
	spec := dlion.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 99)

	// Inference side: registry seeded with the untrained model, fed by
	// weight broadcasts; server on an ephemeral port.
	reg := dlion.NewServeRegistry(spec)
	if err := reg.Publish(0, "init", spec.Build().Checkpoint()); err != nil {
		log.Fatal(err)
	}
	sub, err := broker.Subscribe(dlion.ServeWeightsChannel, 64)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	go reg.WatchBroadcasts(ctx, sub.C)

	srv, err := dlion.ListenAndServeModels(dlion.ServeConfig{
		Registry: reg, MaxBatch: 16, MaxDelay: 2 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("inference server on", srv.URL())

	// Training side: two workers over the broker; each broadcasts its model
	// every second, tagged with its training iteration.
	sys := dlion.DLion()
	sys.DKT.Period = 20
	sys.Batch.DynamicBatching = false
	group, err := dlion.NewRealGroup(n, func(i int) (dlion.RealNodeConfig, error) {
		return dlion.RealNodeConfig{ID: i, N: n, System: sys, Spec: spec,
			Shard: shards[i], Transport: dlion.NewBrokerTransport(broker, i)}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := group.Run(ctx); err != nil {
			log.Print(err)
		}
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			for i := 0; i < n; i++ {
				if iter, ckpt, _, err := group.Checkpoint(ctx, i); err == nil && iter > 0 {
					broker.Publish(dlion.ServeWeightsChannel, dlion.EncodeWeightsUpdate(iter, ckpt))
				}
			}
		}
	}()

	// Client side: one prediction per second against whatever version is
	// freshest; the reported model_seq climbs as training progresses.
	input := make([]float32, dc.Channels*dc.Height*dc.Width)
	sample, _ := shards[0].NextBatch(1)
	copy(input, sample.Data)
	body, _ := json.Marshal(map[string][][]float32{"inputs": {input}})
	for i := 0; i < int(duration/time.Second); i++ {
		time.Sleep(time.Second)
		resp, err := http.Post(srv.URL()+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var pr struct {
			ModelSeq    int64 `json:"model_seq"`
			Predictions []struct {
				Class int       `json:"class"`
				Probs []float32 `json:"probs"`
			} `json:"predictions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		p := pr.Predictions[0]
		fmt.Printf("t=%ds model_seq=%-4d class=%d p=%.2f\n", i+1, pr.ModelSeq, p.Class, p.Probs[p.Class])
	}

	wg.Wait()
	if v := reg.Current(); v != nil {
		fmt.Printf("\nserved %d hot-swaps; final version seq=%d from %s\n",
			reg.Swaps()-1, v.Seq, v.Source)
	}
}
