// Command dlion-bench regenerates the paper's tables and figures on the
// simulated micro-clouds and prints them as text, optionally writing a
// combined report suitable for EXPERIMENTS.md.
//
// Usage:
//
//	dlion-bench                 # run every experiment with the fast profile
//	dlion-bench -exp fig11      # run one experiment
//	dlion-bench -profile std    # paper-style 3-run averaging, longer horizon
//	dlion-bench -list           # list experiment ids
//	dlion-bench -out report.md  # also write a markdown report
//	dlion-bench -json bench.json  # also write a BENCH JSON report (METRICS.md)
//	dlion-bench -serve          # serving load benchmark -> BENCH_serve.json
//	dlion-bench -sim -sim-n 128 -cpuprofile sim.pprof
//	                            # DES throughput workloads, profiled
//
// -cpuprofile, -memprofile and -debug-addr apply to every mode: the CPU
// profile and the debug server span the whole run, and the heap profile is
// written after it.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dlion/cmd/internal/cli"
	"dlion/internal/experiments"
	"dlion/internal/obs"
)

func main() { cli.Main("dlion-bench", run) }

// run sets up the profiling flags once and runs the selected mode.
func run(_ context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := cli.Flags("dlion-bench", stderr)
	var (
		expID   = fs.String("exp", "", "run a single experiment id (default: all)")
		profile = fs.String("profile", "fast", "profile: fast or std")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		out     = fs.String("out", "", "also write a markdown report to this file")
		jsonOut = fs.String("json", "", "also write a BENCH JSON report (METRICS.md schema) to this file")
		srvMode = fs.Bool("serve", false, "run the serving load benchmark instead of the experiments")
		simMode = fs.Bool("sim", false, "run the DES throughput workloads instead of the experiments")
		dbgAddr = fs.String("debug-addr", "", "serve pprof + expvar on this address while running")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a post-run heap profile to this file")

		serveDur   = fs.Duration("serve-duration", 2*time.Second, "load duration per serving config")
		serveConc  = fs.Int("serve-concurrency", 32, "closed-loop clients per serving config")
		serveBatch = fs.Int("serve-max-batch", 32, "max batch for the batched config")

		simSizes = fs.String("sim-n", "32,128", "comma-separated worker counts; sizes >= 256 run as 4-cloud federations")
		simChurn = fs.Bool("sim-churn", false, "add the join/leave churn schedule (flat-mesh sizes only)")
		simRuns  = fs.Int("sim-runs", 1, "runs per size (throughput is averaged)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	stopDebug, err := cli.Debug(*dbgAddr, nil, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				err = cerr
			}
		}()
	}

	switch {
	case *srvMode:
		err = runServeBench(stdout, *jsonOut, *serveDur, *serveConc, *serveBatch)
	case *simMode:
		err = runSimBench(stdout, *jsonOut, *simSizes, *simChurn, *simRuns)
	case *list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
	default:
		err = runExperiments(stdout, stderr, *expID, *profile, *out, *jsonOut)
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			return err
		}
	}
	return err
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runExperiments regenerates the paper's tables and figures.
func runExperiments(stdout, stderr io.Writer, expID, profile, out, jsonOut string) error {
	var p experiments.Profile
	switch profile {
	case "fast":
		p = experiments.Fast()
	case "std", "standard":
		p = experiments.Standard()
	default:
		fmt.Fprintf(stderr, "unknown profile %q (want fast or std)\n", profile)
		return cli.ErrUsage
	}

	todo := experiments.All()
	if expID != "" {
		e, err := experiments.ByID(expID)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ErrUsage
		}
		todo = []experiments.Experiment{e}
	}

	var md strings.Builder
	md.WriteString("# DLion reproduction report\n\n")
	fmt.Fprintf(&md, "Profile: %s, data scale %.3g, horizon %.0f virtual s, %d run(s) per point.\n\n",
		profile, p.DataScale, p.Horizon, p.Runs)

	jr := obs.NewReport("experiments", "dlion-bench/"+profile)
	jr.Config = map[string]any{
		"profile": profile, "data_scale": p.DataScale,
		"horizon": p.Horizon, "runs": p.Runs,
	}

	failed := 0
	for _, e := range todo {
		start := time.Now()
		fmt.Fprintf(stdout, "### %s — %s\n", e.ID, e.Title)
		o, err := e.Run(p)
		if err != nil {
			failed++
			fmt.Fprintf(stdout, "ERROR: %v\n\n", err)
			fmt.Fprintf(&md, "## %s — %s\n\nERROR: %v\n\n", e.ID, e.Title, err)
			jr.Experiments = append(jr.Experiments, obs.ExperimentReport{
				ID: e.ID, Title: e.Title, Notes: []string{"ERROR: " + err.Error()}})
			continue
		}
		jr.Experiments = append(jr.Experiments, obs.ExperimentReport{
			ID: e.ID, Title: e.Title, Values: o.Values, Notes: o.Notes})
		fmt.Fprintln(stdout, o.Text)
		for _, note := range o.Notes {
			fmt.Fprintln(stdout, "note:", note)
		}
		fmt.Fprintf(stdout, "(%.1fs)\n\n", time.Since(start).Seconds())
		fmt.Fprintf(&md, "## %s — %s\n\n```\n%s```\n", e.ID, e.Title, o.Text)
		for _, note := range o.Notes {
			fmt.Fprintf(&md, "- %s\n", note)
		}
		md.WriteString("\n")
	}

	if out != "" {
		if err := os.WriteFile(out, []byte(md.String()), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Fprintln(stdout, "report written to", out)
	}
	if jsonOut != "" {
		if err := jr.WriteFile(jsonOut); err != nil {
			return fmt.Errorf("write json report: %w", err)
		}
		fmt.Fprintln(stdout, "json report written to", jsonOut)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(todo))
	}
	return nil
}
