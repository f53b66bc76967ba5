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
	"fmt"
	"io"
	"time"

	"dlion/cmd/internal/cli"
	"dlion/internal/core"
	"dlion/internal/lineage"
	"dlion/internal/obs"
	"dlion/internal/realtime"
	"dlion/internal/serve"
	"dlion/internal/systems"
)

func main() { cli.Drain("dlion-worker", run) }

// run trains until -duration passes, or leaves the federation once sigCtx
// is done.
func run(sigCtx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-worker", stderr)
	var wf workerFlags
	fs.IntVar(&wf.ID, "id", 0, "worker id in [0, workers)")
	fs.IntVar(&wf.Workers, "workers", 2, "cluster size")
	fs.StringVar(&wf.Broker, "broker", "127.0.0.1:6399", "broker address")
	fs.StringVar(&wf.System, "system", "dlion", "system preset")
	fs.StringVar(&wf.Quant, "quant", "", "wire precision: i8, f16, or auto (empty keeps f32; see WIRE.md)")
	seed := fs.Uint64("seed", systems.DefaultSeed, "shared cluster seed")
	fs.Float64Var(&wf.Scale, "scale", systems.DefaultScale, "dataset scale")
	duration := fs.Duration("duration", 30*time.Second, "training duration")
	dbgAddr := fs.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	servePub := fs.Duration("serve-publish", 0, "broadcast model checkpoints for dlion-serve at this interval (0 disables)")
	fs.BoolVar(&wf.Join, "join", false, "join a running federation instead of founding it (see DESIGN.md §10)")
	fs.IntVar(&wf.Sponsor, "sponsor", 0, "member to request admission from when -join is set")
	fs.IntVar(&wf.Founders, "founders", 0, "founding roster is ids [0,founders); 0 means all -workers slots found the cluster")
	fs.IntVar(&wf.Quorum, "quorum", 0, "mark iterations degraded when the live cluster shrinks below this size (0 disables)")
	fs.StringVar(&wf.Job, "job", "", "attach to this control-plane job's channel namespace (usually with -join; see DESIGN.md §12)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	sys, err := wf.validate()
	if err != nil {
		return err
	}
	if sys.DKT.Enabled {
		sys.DKT.Period = 20
	}
	sys.Membership.QuorumFloor = wf.Quorum
	switch {
	case wf.Join:
		// this process starts outside the federation and asks -sponsor in
		sys.Membership.Join = true
		sys.Membership.Sponsor = wf.Sponsor
	case wf.Founders > 0:
		// a founder of an elastic cluster: the initial roster is smaller
		// than the -workers address space, leaving slots for joiners
		if wf.ID >= wf.Founders {
			return fmt.Errorf("id %d is not a founder (founders are [0,%d)); pass -join", wf.ID, wf.Founders)
		}
		sys.Membership.InitialMembers = systems.Founders(wf.Founders)
	}

	tr, err := realtime.NewClientTransportNS(wf.Broker, wf.ID, wf.namespace())
	if err != nil {
		return err
	}
	defer tr.Close()

	wl := systems.NewWorkload(wf.Scale, *seed)
	shards, _, err := wl.Shards(wf.Workers)
	if err != nil {
		return err
	}

	// Observability: with -debug-addr set the worker keeps its phase clock
	// and serves its report on /debug/vars next to pprof.
	var (
		clock *obs.WorkerObs
		reg   *obs.Registry
	)
	if *dbgAddr != "" {
		clock = obs.NewWorkerObs()
		reg = obs.NewRegistry()
		tr.SetMetrics(reg)
	}
	node, err := realtime.NewNode(realtime.Config{
		ID: wf.ID, N: wf.Workers, System: sys, Spec: wl.Spec, Shard: shards[wf.ID], Transport: tr,
		Obs: clock, Metrics: reg,
	})
	if err != nil {
		return err
	}
	if clock != nil {
		obs.Publish("dlion.worker", func() any {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			var rep obs.WorkerReport
			if err := node.Inspect(ctx, func(w *core.Worker) { rep = w.Report() }); err != nil {
				return err.Error()
			}
			return rep
		})
	}
	stopDebug, err := cli.Debug(*dbgAddr, reg, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()

	fmt.Fprintf(stdout, "worker %d/%d (%s) training for %v via %s\n", wf.ID, wf.Workers, sys.Name, *duration, wf.Broker)
	// SIGINT/SIGTERM trigger a graceful LEAVE, not just a stop: the worker
	// drains its queued sends, broadcasts membership tombstones so peers
	// renormalize immediately instead of waiting to suspect a silent peer,
	// and only then shuts its loop down (DESIGN.md §10).
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
						fmt.Fprintln(stderr, "dlion-worker: serve publish:", err)
						continue
					}
					if err := tr.Publish(serve.WeightsChannel, frame); err != nil {
						fmt.Fprintln(stderr, "dlion-worker: serve publish:", err)
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
					fmt.Fprintf(stdout, "  iter=%d loss=%.3f sent=%dKB\n", w.Stats().Iters, w.AvgRecentLoss(), w.Stats().BytesSent>>10)
				})
			case <-ctx.Done():
				return
			}
		}
	}()
	left := make(chan struct{})
	go func() {
		defer close(left)
		select {
		case <-sigCtx.Done():
			fmt.Fprintln(stdout, "signal: leaving the federation")
			lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := node.Leave(lctx, 5*time.Second); err != nil {
				fmt.Fprintln(stderr, "dlion-worker: leave:", err)
			}
			lcancel()
			cancel() // tombstones are out (or timed out): stop the loop
		case <-ctx.Done():
			// normal duration expiry: Run drains its send queues and returns
		}
	}()
	err = node.Run(ctx)
	cancel() // release the goroutine above if Run failed
	<-left   // a leave in flight ends before the transport closes
	if err != nil {
		return err
	}
	s := node.Worker().Stats()
	fmt.Fprintf(stdout, "done: %d iterations, %d samples, final loss %.3f\n",
		s.Iters, s.SamplesProcessed, node.Worker().AvgRecentLoss())
	w := node.Worker()
	fmt.Fprintf(stdout, "membership: state=%s epoch=%d roster=%d degraded_iters=%d\n",
		w.State(), w.Epoch(), len(w.Members()), s.DegradedIters)
	if clock != nil {
		rep := w.Report()
		fmt.Fprintf(stdout, "phases: compute %.2fs serialize %.2fs send %.2fs recv-wait %.2fs apply %.2fs\n",
			rep.Phases["compute"], rep.Phases["serialize"], rep.Phases["send"],
			rep.Phases["recv_wait"], rep.Phases["apply"])
		fmt.Fprintf(stdout, "bytes: gradient %d/%d weights %d/%d control %d/%d (sent/recvd)\n",
			rep.SentBytes["gradient"], rep.RecvBytes["gradient"],
			rep.SentBytes["weights"], rep.RecvBytes["weights"],
			rep.SentBytes["control"], rep.RecvBytes["control"])
	}
	return nil
}
