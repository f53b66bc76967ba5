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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/serve"
	"dlion/internal/tensor"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		scale    = flag.Float64("scale", 0.02, "dataset scale (must match the workers')")
		seed     = flag.Uint64("seed", 7, "shared cluster seed (must match the workers')")
		ckptDir  = flag.String("ckpt-dir", "", "watch this directory for *.ckpt files")
		watchInt = flag.Duration("watch-interval", 500*time.Millisecond, "checkpoint directory poll interval")
		broker   = flag.String("broker", "", "subscribe to weight broadcasts from this broker")
		initCkpt = flag.String("init-ckpt", "", "checkpoint file to serve before the first update arrives")
		maxBatch = flag.Int("max-batch", 16, "max requests coalesced into one forward pass")
		maxDelay = flag.Duration("max-delay", 2*time.Millisecond, "max wait to fill a batch")
		qDepth   = flag.Int("queue", 256, "admission queue depth; beyond it requests shed with 429")
		runners  = flag.Int("runners", 1, "concurrent batch runners (each holds a model replica)")
		int8Mode = flag.Bool("int8", false, "serve int8-quantized replicas (repacked on every version swap)")
		dbgAddr  = flag.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	)
	flag.Parse()

	if (*ckptDir == "") == (*broker == "") {
		fatal(fmt.Errorf("set exactly one of -ckpt-dir or -broker (their version clocks differ; see internal/serve)"))
	}
	switch {
	case *scale < 0.001 || *scale > 1:
		fatal(fmt.Errorf("-scale %g outside [0.001,1]", *scale))
	case *maxBatch < 1:
		fatal(fmt.Errorf("-max-batch %d; need >= 1", *maxBatch))
	case *qDepth < 1:
		fatal(fmt.Errorf("-queue %d; need >= 1", *qDepth))
	case *runners < 1:
		fatal(fmt.Errorf("-runners %d; need >= 1", *runners))
	case *watchInt <= 0:
		fatal(fmt.Errorf("-watch-interval %v; need > 0", *watchInt))
	}

	// Identical spec derivation to dlion-worker: same scale and seed give
	// the same architecture, so worker checkpoints restore here.
	dc := data.CIFAR10Config(*scale, *seed+13)
	spec := nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, *seed+1000)
	reg := serve.NewRegistry(spec)

	if *initCkpt != "" {
		ckpt, err := os.ReadFile(*initCkpt)
		if err != nil {
			fatal(err)
		}
		if err := reg.Publish(0, "init:"+*initCkpt, ckpt); err != nil {
			fatal(fmt.Errorf("init checkpoint: %w", err))
		}
	}

	metrics := obs.NewRegistry()
	if *dbgAddr != "" {
		dbg, err := obs.ServeDebug(*dbgAddr, metrics)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Println("debug server on", dbg.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *ckptDir != "":
		go reg.WatchDir(ctx, *ckptDir, *watchInt)
		fmt.Printf("watching %s every %v\n", *ckptDir, *watchInt)
	case *broker != "":
		c, err := queue.Dial(*broker)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		c.SetMetrics(metrics)
		ch, err := c.Subscribe(serve.WeightsChannel, 64)
		if err != nil {
			fatal(err)
		}
		go reg.WatchBroadcasts(ctx, ch)
		fmt.Printf("subscribed to %s on %s\n", serve.WeightsChannel, *broker)
	}

	if *int8Mode {
		tensor.AttachQuantMetrics(metrics)
	}
	srv, err := serve.Listen(serve.Config{
		Registry: reg, Metrics: metrics,
		MaxBatch: *maxBatch, MaxDelay: *maxDelay,
		QueueDepth: *qDepth, Runners: *runners,
		Quantized: *int8Mode,
	}, *addr)
	if err != nil {
		fatal(err)
	}
	mode := "f32"
	if *int8Mode {
		mode = "int8"
	}
	fmt.Printf("serving on %s (batch<=%d, delay<=%v, queue %d, %s)\n",
		srv.Addr(), *maxBatch, *maxDelay, *qDepth, mode)

	<-ctx.Done()
	stop() // a second signal now kills the process the default way

	// Graceful shutdown: stop admitting, finish every in-flight batch, then
	// close the listener. The deadline only bounds a stuck drain.
	fmt.Println("shutting down: draining in-flight requests")
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		fatal(err)
	}
	if v := reg.Current(); v != nil {
		fmt.Printf("done: final model seq %d from %s, %d swaps\n", v.Seq, v.Source, reg.Swaps())
	} else {
		fmt.Println("done: no model version was ever published")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlion-serve:", err)
	os.Exit(1)
}
