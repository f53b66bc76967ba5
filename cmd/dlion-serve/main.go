// Command dlion-serve answers inference requests from the cluster's
// freshest model. It builds the same model architecture the workers train
// (same -scale and -seed), loads versions from either a checkpoint
// directory or a broker's weight broadcasts, and serves HTTP /predict with
// dynamic micro-batching: concurrent requests coalesce into one forward
// pass, overload sheds with 429 instead of queueing unboundedly.
//
// Feeding it:
//
//	dlion-serve -addr :8080 -broker 127.0.0.1:6399     # live hot-swaps from workers
//	dlion-worker -id 0 ... -serve-publish 5s           # workers broadcast checkpoints
//
// or, file-based:
//
//	dlion-serve -addr :8080 -ckpt-dir /var/dlion/ckpt  # newest *.ckpt wins
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
		ckptDir  = fs.String("ckpt-dir", "", "watch this directory for *.ckpt files")
		watchInt = fs.Duration("watch-interval", 500*time.Millisecond, "checkpoint directory poll interval")
		broker   = fs.String("broker", "", "subscribe to weight broadcasts from this broker")
		initCkpt = fs.String("init-ckpt", "", "checkpoint file to serve before the first update arrives")
		maxBatch = fs.Int("max-batch", 16, "max requests coalesced into one forward pass")
		qDepth   = fs.Int("queue", 256, "admission queue depth; beyond it requests shed with 429")
		runners  = fs.Int("runners", 1, "concurrent batch runners (each holds a model replica)")
		dbgAddr  = fs.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if (*ckptDir == "") == (*broker == "") {
		return fmt.Errorf("set exactly one of -ckpt-dir or -broker (their version clocks differ; see internal/serve)")
	}
	switch {
	case *scale < 0.001 || *scale > 1:
		return fmt.Errorf("-scale %g outside [0.001,1]", *scale)
	case *maxBatch < 1:
		return fmt.Errorf("-max-batch %d; need >= 1", *maxBatch)
	case *qDepth < 1:
		return fmt.Errorf("-queue %d; need >= 1", *qDepth)
	case *runners < 1:
		return fmt.Errorf("-runners %d; need >= 1", *runners)
	case *watchInt <= 0:
		return fmt.Errorf("-watch-interval %v; need > 0", *watchInt)
	}

	reg := serve.NewRegistry(systems.NewWorkload(*scale, *seed).Spec)

	if *initCkpt != "" {
		ckpt, err := os.ReadFile(*initCkpt)
		if err != nil {
			return err
		}
		if err := reg.Publish(0, "init:"+*initCkpt, ckpt); err != nil {
			return fmt.Errorf("init checkpoint: %w", err)
		}
	}

	metrics := obs.NewRegistry()
	stopDebug, err := cli.Debug(*dbgAddr, metrics, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()

	switch {
	case *ckptDir != "":
		go reg.WatchDir(ctx, *ckptDir, *watchInt)
		fmt.Fprintf(stdout, "watching %s every %v\n", *ckptDir, *watchInt)
	case *broker != "":
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
