// Package cli is the process shell every dlion command runs in. A command
// is one Func, which its main hands to Main or Drain. The shell owns the
// signals (Main keeps their default action; under Drain the first SIGINT or
// SIGTERM cancels the Func's context and a second kills the process), the
// exit status (0 for nil or flag.ErrHelp, 2 for ErrUsage, 1 for any other
// error, printed once on stderr as "<name>: <err>") and the -debug-addr
// server (Debug). No command calls os.Exit, so every exit path runs its
// defers; Run, the shell without signals or exit, is what tests call.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dlion/internal/obs"
)

// Func is a command's whole body: it parses args, runs until done or until
// ctx is cancelled, and writes its output to stdout and stderr.
type Func func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// Main runs a command that ends on the first SIGINT or SIGTERM, and exits
// with its status.
func Main(name string, run Func) {
	os.Exit(Run(context.Background(), name, run, os.Args[1:], os.Stdout, os.Stderr))
}

// Drain runs a command that drains on the first SIGINT or SIGTERM: the
// signal cancels run's context, and a second one kills the process the
// default way. It exits with the command's status.
func Drain(name string, run Func) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(Run(ctx, name, run, os.Args[1:], os.Stdout, os.Stderr))
}

// ErrUsage is returned by a command whose arguments it cannot run with,
// once it has printed why: the shell exits 2 and prints nothing more.
var ErrUsage = errors.New("usage error")

// Run calls run with args and returns the exit status its error maps to,
// printing that error on stderr.
func Run(ctx context.Context, name string, run Func, args []string, stdout, stderr io.Writer) int {
	err := run(ctx, args, stdout, stderr)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// Flags returns a flag set for name whose errors and usage go to stderr
// and which leaves the exit to the shell: parse it with Parse.
func Flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs. It returns flag.ErrHelp for -h, and ErrUsage
// for a flag that does not parse, which fs has already reported.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// Debug starts the -debug-addr server on addr, serving pprof, the process's
// expvars and reg (which may be nil), and prints its address on stdout.
// The returned stop shuts it down. With addr empty it starts nothing and
// stop does nothing.
func Debug(addr string, reg *obs.Registry, stdout io.Writer) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	dbg, err := obs.ServeDebug(addr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, "debug server on", dbg.Addr())
	return func() { dbg.Close() }, nil
}
