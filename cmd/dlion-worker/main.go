// Command dlion-worker runs one real-mode DLion worker process, connecting
// to a dlion-broker for message exchange. Start one broker and n workers
// (each with a distinct -id) to form a training cluster; every worker must
// use the same -workers, -seed and -system so replicas and shards agree.
//
// Example (three shells):
//
//	dlion-broker -addr 127.0.0.1:6399
//	dlion-worker -id 0 -workers 2 -broker 127.0.0.1:6399 -duration 30s
//	dlion-worker -id 1 -workers 2 -broker 127.0.0.1:6399 -duration 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/realtime"
	"dlion/internal/serve"
)

func main() {
	var (
		id       = flag.Int("id", 0, "worker id in [0, workers)")
		n        = flag.Int("workers", 2, "cluster size")
		broker   = flag.String("broker", "127.0.0.1:6399", "broker address")
		sysName  = flag.String("system", "dlion", "system preset")
		quant    = flag.String("quant", "", "wire precision: i8, f16, or auto (empty keeps f32; see WIRE.md)")
		seed     = flag.Uint64("seed", 7, "shared cluster seed")
		scale    = flag.Float64("scale", 0.02, "dataset scale")
		duration = flag.Duration("duration", 30*time.Second, "training duration")
		dbgAddr  = flag.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
		servePub = flag.Duration("serve-publish", 0, "broadcast model checkpoints for dlion-serve at this interval (0 disables)")
		join     = flag.Bool("join", false, "join a running federation instead of founding it (see DESIGN.md §10)")
		sponsor  = flag.Int("sponsor", 0, "member to request admission from when -join is set")
		founders = flag.Int("founders", 0, "founding roster is ids [0,founders); 0 means all -workers slots found the cluster")
		quorum   = flag.Int("quorum", 0, "mark iterations degraded when the live cluster shrinks below this size (0 disables)")
		job      = flag.String("job", "", "attach to this control-plane job's channel namespace (usually with -join; see DESIGN.md §12)")
	)
	flag.Parse()

	wf := workerFlags{ID: *id, Workers: *n, Broker: *broker, System: *sysName,
		Quant: *quant, Job: *job, Scale: *scale, Join: *join, Sponsor: *sponsor,
		Founders: *founders, Quorum: *quorum}
	sys, err := wf.validate()
	if err != nil {
		fatal(err)
	}
	if sys.DKT.Enabled {
		sys.DKT.Period = 20
	}
	sys.Membership.QuorumFloor = *quorum
	switch {
	case *join:
		// this process starts outside the federation and asks -sponsor in
		sys.Membership.Join = true
		sys.Membership.Sponsor = *sponsor
	case *founders > 0:
		// a founder of an elastic cluster: the initial roster is smaller
		// than the -workers address space, leaving slots for joiners
		if *id >= *founders {
			fatal(fmt.Errorf("id %d is not a founder (founders are [0,%d)); pass -join", *id, *founders))
		}
		roster := make([]int, *founders)
		for i := range roster {
			roster[i] = i
		}
		sys.Membership.InitialMembers = roster
	}

	tr, err := realtime.NewClientTransportNS(*broker, *id, wf.namespace())
	if err != nil {
		fatal(err)
	}
	defer tr.Close()

	dc := data.CIFAR10Config(*scale, *seed+13)
	train, _, err := data.Generate(dc)
	if err != nil {
		fatal(err)
	}
	shards, err := data.Partition(train, *n, *seed)
	if err != nil {
		fatal(err)
	}
	spec := nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, *seed+1000)

	// Observability: with -debug-addr set the worker traces its phase
	// breakdown and counters and serves them on /debug/vars next to pprof.
	var (
		sink *obs.WorkerObs
		reg  *obs.Registry
	)
	if *dbgAddr != "" {
		sink = obs.NewWorkerObs()
		reg = obs.NewRegistry()
		tr.SetMetrics(reg)
		dbg, err := obs.ServeDebug(*dbgAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		workerID := *id
		obs.Publish("dlion.worker", func() any { return sink.Snapshot(workerID) })
		sink.SetJoinHistogram(reg.Histogram("membership.join_latency"))
		fmt.Println("debug server on", dbg.Addr())
	}

	node, err := realtime.NewNode(realtime.Config{
		ID: *id, N: *n, System: sys, Spec: spec, Shard: shards[*id], Transport: tr,
		Obs: sink, Metrics: reg,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("worker %d/%d (%s) training for %v via %s\n", *id, *n, sys.Name, *duration, *broker)
	// SIGINT/SIGTERM trigger a graceful LEAVE, not just a stop: the worker
	// drains its queued sends, broadcasts membership tombstones so peers
	// renormalize immediately instead of waiting to suspect a silent peer,
	// and only then shuts its loop down (DESIGN.md §10).
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	// With -serve-publish set, the worker periodically snapshots its model
	// on the event loop and broadcasts it on the serving weights channel;
	// any dlion-serve subscribed to the same broker hot-swaps to it. Each
	// broadcast carries a lineage manifest chained to this process's prior
	// snapshot, so the serving tier's /modelz chain records real provenance.
	if *servePub > 0 {
		go func() {
			tick := time.NewTicker(*servePub)
			defer tick.Stop()
			var parent *lineage.Manifest
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					iter, ckpt, man, err := node.CheckpointManifest(ctx, parent)
					if err != nil || iter == 0 {
						continue // stopping, or nothing trained yet
					}
					frame, err := serve.EncodeUpdateManifest(iter, man, ckpt)
					if err != nil {
						fmt.Fprintln(os.Stderr, "dlion-worker: serve publish:", err)
						continue
					}
					if err := tr.Publish(serve.WeightsChannel, frame); err != nil {
						fmt.Fprintln(os.Stderr, "dlion-worker: serve publish:", err)
						continue
					}
					if parent == nil || man.Iter > parent.Iter {
						parent = man
					}
				}
			}
		}()
	}
	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				node.Inspect(ctx, func(w *core.Worker) {
					fmt.Printf("  iter=%d loss=%.3f sent=%dKB\n", w.Stats().Iters, w.AvgRecentLoss(), w.Stats().BytesSent>>10)
				})
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		select {
		case <-sigCtx.Done():
			fmt.Println("signal: leaving the federation")
			lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := node.Leave(lctx, 5*time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "dlion-worker: leave:", err)
			}
			lcancel()
			cancel() // tombstones are out (or timed out): stop the loop
		case <-ctx.Done():
			// normal duration expiry: Run returns and FlushSends below drains
		}
	}()
	if err := node.Run(ctx); err != nil {
		fatal(err)
	}
	// Graceful drain: give the per-peer FIFOs a moment to hand their last
	// frames to the broker before the deferred transport close cuts them off.
	if !node.FlushSends(2 * time.Second) {
		fmt.Fprintln(os.Stderr, "dlion-worker: send queues did not fully drain")
	}
	s := node.Worker().Stats()
	fmt.Printf("done: %d iterations, %d samples, final loss %.3f\n",
		s.Iters, s.SamplesProcessed, node.Worker().AvgRecentLoss())
	w := node.Worker()
	fmt.Printf("membership: state=%s epoch=%d roster=%d degraded_iters=%d\n",
		w.State(), w.Epoch(), len(w.Members()), s.DegradedIters)
	if sink != nil {
		w := sink.Snapshot(*id)
		fmt.Printf("phases: compute %.2fs serialize %.2fs send %.2fs recv-wait %.2fs apply %.2fs\n",
			w.Phases["compute"], w.Phases["serialize"], w.Phases["send"],
			w.Phases["recv_wait"], w.Phases["apply"])
		fmt.Printf("bytes: gradient %d/%d weights %d/%d control %d/%d (sent/recvd)\n",
			w.SentBytes["gradient"], w.RecvBytes["gradient"],
			w.SentBytes["weights"], w.RecvBytes["weights"],
			w.SentBytes["control"], w.RecvBytes["control"])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlion-worker:", err)
	os.Exit(1)
}
