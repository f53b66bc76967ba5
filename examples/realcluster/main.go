// Real cluster: run three DLion workers as goroutines over the TCP message
// broker (the Redis substitute) on wall-clock time — no simulator. This is
// the deployment shape of the original prototype: one shared broker, one
// worker per machine; here all three live in one process for a
// self-contained demo, exchanging real encoded messages over loopback TCP.
//
//	go run ./examples/realcluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dlion"
)

func main() {
	const (
		n        = 3
		duration = 8 * time.Second
	)

	// One broker serves the whole cluster, like the prototype's Redis.
	broker := dlion.NewBroker()
	defer broker.Close()
	srv, err := dlion.ServeBroker(broker, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("broker listening on", srv.Addr())

	// Shared dataset, partitioned into per-worker shards; every node builds
	// the same model spec with the same seed so replicas start identical.
	dc := dlion.CipherDataConfig(0.02, 11) // 1200 train samples
	train, _, err := dlion.GenerateData(dc)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := dlion.PartitionData(train, n, 1)
	if err != nil {
		log.Fatal(err)
	}
	spec := dlion.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 99)

	sys := dlion.DLion()
	sys.DKT.Period = 20
	sys.Batch.DynamicBatching = false // wall-clock profiling noise is high in-process

	group, err := dlion.NewRealGroup(n, func(i int) (dlion.RealNodeConfig, error) {
		transport, err := dlion.NewTCPTransport(srv.Addr(), i)
		return dlion.RealNodeConfig{ID: i, N: n, System: sys, Spec: spec,
			Shard: shards[i], Transport: transport}, err
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- group.Run(ctx) }()

	// Progress while training runs, read on each worker's event loop.
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-ticker.C:
			fmt.Print("progress:")
			for i := 0; i < n; i++ {
				group.Inspect(context.Background(), i, func(w *dlion.Worker) {
					fmt.Printf("  w%d iter=%d loss=%.2f", i, w.Iter(), w.AvgRecentLoss())
				})
			}
			fmt.Println()
		case err := <-ran:
			if err != nil {
				log.Print(err)
			}
			break loop
		}
	}

	fmt.Println("\nfinal state after", duration, "of wall-clock training:")
	for i := 0; i < n; i++ {
		group.Inspect(ctx, i, func(w *dlion.Worker) {
			s := w.Stats()
			fmt.Printf("  worker %d: %d iterations, %d samples, %d KB sent, loss %.3f\n",
				i, s.Iters, s.SamplesProcessed, s.BytesSent>>10, w.AvgRecentLoss())
		})
	}
}
