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
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"dlion/cmd/internal/cli"
	"dlion/internal/jobs"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

func main() { cli.Drain("dlion-controller", run) }

// run serves the job API until ctx is done, then halts the active jobs.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-controller", stderr)
	var (
		api        = fs.String("api", "127.0.0.1:8081", "REST job API listen address")
		brokerAddr = fs.String("broker-addr", "", "also expose the broker over TCP on this address (for external -job workers)")
		store      = fs.String("store", "", "persist job records to this JSON file (empty = memory only)")
		maxConc    = fs.Int("max-concurrent", 2, "jobs training at once; the rest queue")
		queueDepth = fs.Int("queue-depth", 8, "admitted-but-waiting jobs before submissions get 429s")
		quota      = fs.Int("tenant-quota", 4, "non-terminal jobs allowed per tenant")
		restarts   = fs.Int("max-restarts", 2, "per-job checkpoint-restore restarts before the job fails")
		liveness   = fs.Float64("liveness", 2, "seconds of silence before a peer leaves the roster (crash recovery)")
		dbgAddr    = fs.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	b := queue.NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	b.SetMetrics(reg)

	stopDebug, err := cli.Debug(*dbgAddr, reg, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()
	if *brokerAddr != "" {
		srv, err := queue.Serve(b, *brokerAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintln(stdout, "broker listening on", srv.Addr())
	}

	st, err := jobs.NewStore(*store)
	if err != nil {
		return err
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
		return err
	}

	ln, err := net.Listen("tcp", *api)
	if err != nil {
		m.Close()
		return err
	}
	fmt.Fprintln(stdout, "job API listening on", ln.Addr())
	// Serve returns once ln closes below; that error is the shutdown itself.
	go jobs.NewAPI(m).Serve(ln)

	<-ctx.Done()
	fmt.Fprintln(stdout, "shutting down: halting active jobs")
	ln.Close()
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		fmt.Fprintln(stderr, "dlion-controller: shutdown timed out")
	}
	return nil
}
