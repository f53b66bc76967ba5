// Continuous learning: the paper's motivating workload — edge devices keep
// generating data, and models "periodically start or resume training with
// the collected data" (§1). This example runs DLion in real mode over the
// in-process broker through two training sessions: train on the initial
// data, checkpoint the best worker's model, let new data arrive, then
// resume from the checkpoint and keep improving.
//
//	go run ./examples/continuous
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dlion"
)

const (
	workers = 3
	session = 4 * time.Second
)

func main() {
	broker := dlion.NewBroker()
	defer broker.Close()

	// Initial data collection: 900 samples spread over 3 micro-clouds.
	dc := dlion.CipherDataConfig(0.015, 11)
	gen, train, test, err := dlion.NewDataGenerator(dc)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := dlion.PartitionData(train, workers, 1)
	if err != nil {
		log.Fatal(err)
	}
	spec := dlion.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 99)

	sys := dlion.DLion()
	sys.DKT.Period = 15
	sys.Batch.DynamicBatching = false // wall-clock profiling is noisy in-process

	fmt.Printf("session 1: training on %d samples for %v\n", train.Len(), session)
	checkpoint, acc1 := runSession(broker, sys, spec, shards, test, nil)
	fmt.Printf("session 1 done: best worker accuracy %.3f\n", acc1)
	// Persist the learned model, as a deployment would between sessions.
	fmt.Printf("checkpointed %d KB of weights\n", len(checkpoint)>>10)

	// New data arrives at the edges while training is offline.
	chunk := gen.Next(600)
	if err := dlion.GrowShards(train, chunk, shards); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d new samples collected; dataset now %d\n", chunk.Len(), train.Len())

	// Session 2: fresh worker processes resume from the checkpoint.
	fmt.Printf("session 2: resuming from checkpoint for %v\n", session)
	_, acc2 := runSession(broker, sys, spec, shards, test, checkpoint)
	fmt.Printf("session 2 done: best worker accuracy %.3f (was %.3f)\n", acc2, acc1)
	if acc2 >= acc1 {
		fmt.Println("resumed training improved the model with the new data ✓")
	} else {
		fmt.Println("note: wall-clock runs vary; rerun for a longer session to see gains")
	}
}

// runSession trains `workers` nodes for one wall-clock session, optionally
// restoring every replica from a checkpoint first, and returns the
// lowest-loss worker's checkpoint and test accuracy.
func runSession(broker *dlion.Broker, sys dlion.SystemConfig, spec dlion.ModelSpec,
	shards []*dlion.Shard, test *dlion.Dataset, checkpoint []byte) ([]byte, float64) {

	group, err := dlion.NewRealGroup(workers, func(i int) (dlion.RealNodeConfig, error) {
		return dlion.RealNodeConfig{ID: i, N: workers, System: sys, Spec: spec,
			Shard: shards[i], Transport: dlion.NewBrokerTransport(broker, i)}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), session)
	defer cancel()
	// Until Run starts, Inspect reaches the workers directly.
	for i := 0; checkpoint != nil && i < workers; i++ {
		group.Inspect(ctx, i, func(w *dlion.Worker) { err = w.Model().Restore(checkpoint) })
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := group.Run(ctx); err != nil {
		log.Fatal(err)
	}
	var best *dlion.Worker
	for i := 0; i < workers; i++ {
		group.Inspect(ctx, i, func(w *dlion.Worker) {
			fmt.Printf("  worker %d: %d iterations, loss %.3f\n", i, w.Iter(), w.AvgRecentLoss())
			if best == nil || w.AvgRecentLoss() < best.AvgRecentLoss() {
				best = w
			}
		})
	}
	acc, _ := best.Model().Evaluate(test, 64)
	return best.Model().Checkpoint(), acc
}
