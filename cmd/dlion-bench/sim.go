package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/obs"
)

// runSimBench drives the canonical DES throughput workloads
// (cluster.SimEventsConfig / cluster.FederationConfig — the exact
// configurations BenchmarkSimEvents measures) outside the testing harness,
// so a single workload can be profiled:
//
//	dlion-bench -sim -sim-n 128 -cpuprofile sim.pprof -memprofile sim.mprof
//
// The profiles, set up in run, cover the run; go tool pprof reads them
// directly. With -json, an obs BENCH report of the events/s figures is
// written alongside.
func runSimBench(stdout io.Writer, jsonPath, sizeList string, churn bool, runs int) error {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 2 {
			return fmt.Errorf("bad -sim-n entry %q", f)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("-sim-n selected no sizes")
	}

	jr := obs.NewReport("sim-bench", "dlion-bench/sim")
	jr.Config = map[string]any{"sizes": sizeList, "churn": churn, "runs": runs}

	for _, n := range sizes {
		var cfg cluster.Config
		kind := "flat"
		if n >= 256 {
			cfg = cluster.FederationConfig(n)
			kind = "4-cloud"
		} else {
			cfg = cluster.SimEventsConfig(n, churn)
		}
		var events uint64
		var elapsed float64
		for r := 0; r < runs; r++ {
			start := time.Now()
			res, err := cluster.Run(cfg)
			if err != nil {
				return fmt.Errorf("n=%d: %w", n, err)
			}
			elapsed += time.Since(start).Seconds()
			events += res.Events
		}
		eps := float64(events) / elapsed
		fmt.Fprintf(stdout, "sim n=%-5d %-8s %12d events  %10.1f events/s\n", n, kind, events, eps)
		jr.Experiments = append(jr.Experiments, obs.ExperimentReport{
			ID:    fmt.Sprintf("sim-n%d", n),
			Title: fmt.Sprintf("DES throughput, n=%d (%s)", n, kind),
			Values: map[string]float64{
				"events": float64(events), "events_per_sec": eps, "wall_sec": elapsed},
		})
	}

	if jsonPath != "" {
		if err := jr.WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "json report written to", jsonPath)
	}
	return nil
}
