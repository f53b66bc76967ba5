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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dlion/internal/experiments"
	"dlion/internal/obs"
)

var (
	expID   = flag.String("exp", "", "run a single experiment id (default: all)")
	profile = flag.String("profile", "fast", "profile: fast or std")
	list    = flag.Bool("list", false, "list experiment ids and exit")
	out     = flag.String("out", "", "also write a markdown report to this file")
	jsonOut = flag.String("json", "", "also write a BENCH JSON report (METRICS.md schema) to this file")
	srvMode = flag.Bool("serve", false, "run the serving load benchmark instead of the experiments")
	simMode = flag.Bool("sim", false, "run the DES throughput workloads instead of the experiments")
	dbgAddr = flag.String("debug-addr", "", "serve pprof + expvar on this address while running")
	cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf = flag.String("memprofile", "", "write a post-run heap profile to this file")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run sets up the profiling flags once, runs the selected mode and returns
// the exit status.
func run() (code int) {
	if *dbgAddr != "" {
		dbg, err := obs.ServeDebug(*dbgAddr, nil)
		if err != nil {
			return fail(err)
		}
		defer dbg.Close()
		fmt.Println("debug server on", dbg.Addr())
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}

	switch {
	case *srvMode:
		code = exitCode(runServeBench(*jsonOut))
	case *simMode:
		code = exitCode(runSimBench(*jsonOut))
	default:
		code = runExperiments()
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			return fail(err)
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dlion-bench:", err)
	return 1
}

func exitCode(err error) int {
	if err != nil {
		return fail(err)
	}
	return 0
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
func runExperiments() int {
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var p experiments.Profile
	switch *profile {
	case "fast":
		p = experiments.Fast()
	case "std", "standard":
		p = experiments.Standard()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want fast or std)\n", *profile)
		return 2
	}

	var todo []experiments.Experiment
	if *expID != "" {
		e, err := experiments.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		todo = []experiments.Experiment{e}
	} else {
		todo = experiments.All()
	}

	var md strings.Builder
	md.WriteString("# DLion reproduction report\n\n")
	fmt.Fprintf(&md, "Profile: %s, data scale %.3g, horizon %.0f virtual s, %d run(s) per point.\n\n",
		*profile, p.DataScale, p.Horizon, p.Runs)

	jr := obs.NewReport("experiments", "dlion-bench/"+*profile)
	jr.Config = map[string]any{
		"profile": *profile, "data_scale": p.DataScale,
		"horizon": p.Horizon, "runs": p.Runs,
	}

	failed := 0
	for _, e := range todo {
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		o, err := e.Run(p)
		if err != nil {
			failed++
			fmt.Printf("ERROR: %v\n\n", err)
			fmt.Fprintf(&md, "## %s — %s\n\nERROR: %v\n\n", e.ID, e.Title, err)
			jr.Experiments = append(jr.Experiments, obs.ExperimentReport{
				ID: e.ID, Title: e.Title, Notes: []string{"ERROR: " + err.Error()}})
			continue
		}
		jr.Experiments = append(jr.Experiments, obs.ExperimentReport{
			ID: e.ID, Title: e.Title, Values: o.Values, Notes: o.Notes})
		fmt.Println(o.Text)
		for _, note := range o.Notes {
			fmt.Println("note:", note)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		fmt.Fprintf(&md, "## %s — %s\n\n```\n%s```\n", e.ID, e.Title, o.Text)
		for _, note := range o.Notes {
			fmt.Fprintf(&md, "- %s\n", note)
		}
		md.WriteString("\n")
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write report:", err)
			return 1
		}
		fmt.Println("report written to", *out)
	}
	if *jsonOut != "" {
		if err := jr.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "write json report:", err)
			return 1
		}
		fmt.Println("json report written to", *jsonOut)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
