// Command dlion-broker runs the standalone message broker (the Redis
// substitute) that real-mode DLion workers connect to.
//
// Usage:
//
//	dlion-broker -addr 127.0.0.1:6399
package main

import (
	"context"
	"fmt"
	"io"

	"dlion/cmd/internal/cli"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

func main() { cli.Drain("dlion-broker", run) }

// run serves the broker until ctx is done, then closes it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-broker", stderr)
	addr := fs.String("addr", "127.0.0.1:6399", "listen address")
	dbgAddr := fs.String("debug-addr", "", "serve pprof + expvar on this address (see METRICS.md)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	b := queue.NewBroker()
	defer b.Close()
	var reg *obs.Registry
	if *dbgAddr != "" {
		reg = obs.NewRegistry()
		b.SetMetrics(reg)
	}
	stopDebug, err := cli.Debug(*dbgAddr, reg, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()
	srv, err := queue.Serve(b, *addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintln(stdout, "dlion-broker listening on", srv.Addr())

	<-ctx.Done()
	fmt.Fprintln(stdout, "shutting down")
	return nil
}
