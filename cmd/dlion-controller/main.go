// Command dlion-controller runs the multi-job training control plane: an
// in-process broker (optionally exposed over TCP for external workers), the
// job lifecycle manager, and the REST/JSON job API.
//
// Usage:
//
//	dlion-controller -api 127.0.0.1:8081 -broker-addr 127.0.0.1:6399
//	dlion-ctl -api http://127.0.0.1:8081 submit -system dlion -workers 4 -max-iters 200
//
// With -broker-addr set, external dlion-worker processes can attach to a
// running job's channel namespace (-job <id> -join); see DESIGN.md §12.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dlion/internal/jobs"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

func main() {
	var (
		api        = flag.String("api", "127.0.0.1:8081", "REST job API listen address")
		brokerAddr = flag.String("broker-addr", "", "also expose the broker over TCP on this address (for external -job workers)")
		store      = flag.String("store", "", "persist job records to this JSON file (empty = memory only)")
		maxConc    = flag.Int("max-concurrent", 2, "jobs training at once; the rest queue")
		queueDepth = flag.Int("queue-depth", 8, "admitted-but-waiting jobs before submissions get 429s")
		quota      = flag.Int("tenant-quota", 4, "non-terminal jobs allowed per tenant")
		restarts   = flag.Int("max-restarts", 2, "per-job checkpoint-restore restarts before the job fails")
		liveness   = flag.Float64("liveness", 2, "seconds of silence before a peer leaves the roster (crash recovery)")
		dbgAddr    = flag.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	)
	flag.Parse()

	b := queue.NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	b.SetMetrics(reg)

	if *dbgAddr != "" {
		dbg, err := obs.ServeDebug(*dbgAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Println("debug server on", dbg.Addr())
	}
	if *brokerAddr != "" {
		srv, err := queue.Serve(b, *brokerAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Println("broker listening on", srv.Addr())
	}

	st, err := jobs.NewStore(*store)
	if err != nil {
		fatal(err)
	}
	m, err := jobs.NewManager(jobs.Config{
		Broker:          b,
		Store:           st,
		Metrics:         reg,
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		TenantQuota:     *quota,
		MaxRestarts:     *restarts,
		LivenessTimeout: *liveness,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *api)
	if err != nil {
		fatal(err)
	}
	fmt.Println("job API listening on", ln.Addr())
	go func() {
		if err := jobs.NewAPI(m).Serve(ln); err != nil {
			// Closing the listener on shutdown surfaces here; nothing to do.
			_ = err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down: halting active jobs")
	ln.Close()
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "dlion-controller: shutdown timed out")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlion-controller:", err)
	os.Exit(1)
}
