// Command dlion-serve answers inference requests from the cluster's
// freshest model. It builds the same model architecture the workers train
// (same -scale and -seed), loads versions from a broker's weight broadcasts,
// and serves HTTP /predict with dynamic micro-batching: concurrent requests
// coalesce into one forward pass, overload sheds with 429 instead of
// queueing unboundedly. A version's sequence is the training iteration that
// produced it; -init-ckpt serves a checkpoint file as version 0, alone (a
// static model) or until the first broadcast lands.
//
// Feeding it:
//
//	dlion-serve -addr :8080 -broker 127.0.0.1:6399      # live hot-swaps from workers
//	dlion-worker -id 0 ... -serve-publish 5s            # workers broadcast checkpoints
//	dlion-serve -addr :8080 -init-ckpt model.ckpt       # one checkpoint, no broker
//
// Endpoints: POST /predict, GET /healthz /modelz /statsz.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"dlion/cmd/internal/cli"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/serve"
	"dlion/internal/systems"
)

func main() { cli.Drain("dlion-serve", run) }

// run is the whole command: it parses args, serves until ctx is done, then
// drains.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-serve", stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		scale    = fs.Float64("scale", systems.DefaultScale, "dataset scale (must match the workers')")
		seed     = fs.Uint64("seed", systems.DefaultSeed, "shared cluster seed (must match the workers')")
		broker   = fs.String("broker", "", "subscribe to weight broadcasts from this broker")
		initCkpt = fs.String("init-ckpt", "", "checkpoint file to serve as version 0: alone, or until the first broadcast lands")
		maxBatch = fs.Int("max-batch", 16, "max requests coalesced into one forward pass")
		qDepth   = fs.Int("queue", 256, "admission queue depth; beyond it requests shed with 429")
		runners  = fs.Int("runners", 1, "concurrent batch runners (each holds a model replica)")
		dbgAddr  = fs.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	switch {
	case *broker == "" && *initCkpt == "":
		return fmt.Errorf("set -broker, -init-ckpt or both")
	case *scale < 0.001 || *scale > 1:
		return fmt.Errorf("-scale %g outside [0.001,1]", *scale)
	case *maxBatch < 1:
		return fmt.Errorf("-max-batch %d; need >= 1", *maxBatch)
	case *qDepth < 1:
		return fmt.Errorf("-queue %d; need >= 1", *qDepth)
	case *runners < 1:
		return fmt.Errorf("-runners %d; need >= 1", *runners)
	}

	reg := serve.NewRegistry(systems.NewWorkload(*scale, *seed).Spec)
	metrics := obs.NewRegistry()
	reg.SetMetrics(metrics) // before the first publish, so every version counts

	if *initCkpt != "" {
		ckpt, err := os.ReadFile(*initCkpt)
		if err != nil {
			return err
		}
		if err := reg.Publish(0, "init:"+*initCkpt, ckpt); err != nil {
			return fmt.Errorf("init checkpoint: %w", err)
		}
	}

	stopDebug, err := cli.Debug(*dbgAddr, metrics, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()

	if *broker != "" {
		c, err := queue.Dial(*broker)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetMetrics(metrics)
		ch, err := c.Subscribe(serve.WeightsChannel, 64)
		if err != nil {
			return err
		}
		go reg.WatchBroadcasts(ctx, ch)
		fmt.Fprintf(stdout, "subscribed to %s on %s\n", serve.WeightsChannel, *broker)
	}

	srv, err := serve.Listen(serve.Config{
		Registry: reg, Metrics: metrics,
		MaxBatch: *maxBatch, QueueDepth: *qDepth, Runners: *runners,
	}, *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving on %s (batch<=%d, queue %d)\n",
		srv.Addr(), *maxBatch, *qDepth)

	<-ctx.Done()

	// Graceful shutdown: stop admitting, finish every in-flight batch, then
	// close the listener. The deadline only bounds a stuck drain.
	fmt.Fprintln(stdout, "shutting down: draining in-flight requests")
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		return err
	}
	if v := reg.Current(); v != nil {
		fmt.Fprintf(stdout, "done: final model seq %d from %s, %d swaps\n", v.Seq, v.Source, reg.Swaps())
	} else {
		fmt.Fprintln(stdout, "done: no model version was ever published")
	}
	return nil
}
