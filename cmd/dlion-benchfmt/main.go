// Command dlion-benchfmt converts `go test -bench` output into the BENCH
// JSON report format documented in METRICS.md. It reads the benchmark run
// from stdin, echoes every line so the run stays visible, and writes a
// "kernel-bench" report to -out.
//
// With -baseline it also compares the fresh run against a previously
// committed report, printing per-benchmark deltas (ns/op, allocs/op, MB/s).
// When -regress is set to a positive percentage, any benchmark whose ns/op
// worsens by more than that threshold fails the run with a nonzero exit —
// the perf gate used by `make bench`.
//
// Usage:
//
//	go test -bench=. -benchmem ./internal/tensor/... | dlion-benchfmt -out BENCH_kernels.json
//	go test -bench=. -benchmem ./... | dlion-benchfmt -baseline BENCH_kernels.json -regress 20
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"

	"dlion/cmd/internal/cli"
	"dlion/internal/obs"
)

func main() { cli.Main("dlion-benchfmt", run) }

// stdin is the benchmark run read; a test sets its own.
var stdin io.Reader = os.Stdin

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-benchfmt", stderr)
	var (
		out      = fs.String("out", "BENCH_kernels.json", "output file for the kernel-bench JSON report")
		name     = fs.String("name", "kernels", "report name")
		baseline = fs.String("baseline", "", "prior kernel-bench JSON report to diff against (read before -out is overwritten)")
		regress  = fs.Float64("regress", 0, "fail (exit 1) when any benchmark's ns/op worsens by more than this percentage vs -baseline; 0 disables the gate")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	// Load the baseline FIRST: -baseline and -out usually name the same file,
	// and the old numbers must survive being overwritten below.
	var base *obs.Report
	if *baseline != "" {
		var err error
		base, err = obs.ReadFile(*baseline)
		if err != nil {
			// A missing or unreadable baseline is not an error: first runs and
			// fresh clones have nothing to compare against yet.
			fmt.Fprintf(stderr, "dlion-benchfmt: no usable baseline (%v); skipping comparison\n", err)
			base = nil
		}
	}

	// Echo the run to stdout while scanning it for benchmark lines.
	results, err := obs.ParseGoBench(io.TeeReader(stdin, stdout))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	r := obs.NewReport("kernel-bench", *name)
	r.Benchmarks = results
	if err := r.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmark results to %s\n", len(results), *out)

	if base != nil && !compare(stdout, base, results, *regress) {
		return fmt.Errorf("ns/op regression beyond %.1f%% vs %s", *regress, *baseline)
	}
	return nil
}

// compare prints a per-benchmark delta table against the baseline report and
// reports whether the run stays within the regression threshold (regressPct
// <= 0 disables the gate). Positive deltas mean slower / more allocations.
func compare(stdout io.Writer, base *obs.Report, results []obs.BenchResult, regressPct float64) bool {
	old := make(map[string]obs.BenchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	fmt.Fprintf(stdout, "\ndelta vs baseline %q:\n", base.Name)
	fmt.Fprintf(stdout, "  %-34s %14s %14s %9s %12s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns", "Δallocs/op", "ΔMB/s")
	ok := true
	for _, b := range results {
		o, found := old[b.Name]
		if !found {
			fmt.Fprintf(stdout, "  %-34s %14s %14.0f %9s (new benchmark)\n", b.Name, "-", b.NsPerOp, "-")
			continue
		}
		delete(old, b.Name)
		dns := pctDelta(o.NsPerOp, b.NsPerOp)
		fmt.Fprintf(stdout, "  %-34s %14.0f %14.0f %8.1f%% %11s %9s\n",
			b.Name, o.NsPerOp, b.NsPerOp, dns,
			fmtDelta(o.AllocsPerOp, b.AllocsPerOp), fmtDelta(o.MBPerSec, b.MBPerSec))
		if regressPct > 0 && dns > regressPct {
			ok = false
		}
	}
	for n := range old {
		fmt.Fprintf(stdout, "  %-34s missing from this run (present in baseline)\n", n)
	}
	return ok
}

// pctDelta returns the percentage change from old to new (positive = grew).
func pctDelta(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - old) / old * 100
}

// fmtDelta renders an optional metric delta, "-" when neither side has it.
func fmtDelta(old, cur float64) string {
	if old == 0 && cur == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", pctDelta(old, cur))
}
