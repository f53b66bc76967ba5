// Command dlion-sim runs one (system, environment) combination on the
// micro-cloud simulator and prints the accuracy timeline.
//
// Usage:
//
//	dlion-sim -system dlion -env "Hetero SYS A" -horizon 300
//	dlion-sim -system baseline -env "Homo A" -scale 0.05 -trace
//	dlion-sim -report run.json            # emit the BENCH JSON run report
//	dlion-sim -debug-addr 127.0.0.1:6060  # pprof while the run executes
package main

import (
	"context"
	"fmt"
	"io"

	"dlion/cmd/internal/cli"
	"dlion/internal/cluster"
	"dlion/internal/data"
	"dlion/internal/env"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/report"
	"dlion/internal/systems"
)

func main() { cli.Main("dlion-sim", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-sim", stderr)
	var (
		sysName = fs.String("system", "dlion", "system: baseline, ako, gaia, hop, dlion, dlion-quant, max10, dlion-no-wu, dlion-no-dbwu")
		envName = fs.String("env", "Homo A", "Table 3 environment name (see -envs)")
		horizon = fs.Float64("horizon", 300, "virtual seconds to simulate")
		scale   = fs.Float64("scale", 0.05, "dataset scale (1.0 = the paper's full size)")
		seed    = fs.Uint64("seed", 7, "experiment seed")
		trace   = fs.Bool("trace", false, "print LBS/gradient-size traces")
		amplify = fs.Float64("amplify", 5, "wire-size amplification (see DESIGN.md)")
		dktp    = fs.Int64("dkt-period", 10, "DLion DKT period in iterations (scaled)")
		quant   = fs.String("quant", "", "wire precision: i8, f16, or auto (empty keeps f32; see WIRE.md)")
		envs    = fs.Bool("envs", false, "list environments and exit")
		repOut  = fs.String("report", "", "write a BENCH JSON run report (METRICS.md schema) to this file")
		dbgAddr = fs.String("debug-addr", "", "serve pprof + expvar on this address while running")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	stopDebug, err := cli.Debug(*dbgAddr, nil, stdout)
	if err != nil {
		return err
	}
	defer stopDebug()

	if *envs {
		for _, n := range env.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	switch {
	case *horizon <= 0:
		return fmt.Errorf("-horizon %g; need > 0 virtual seconds", *horizon)
	case *scale < 0.001 || *scale > 1:
		return fmt.Errorf("-scale %g outside [0.001,1]", *scale)
	case *amplify <= 0:
		return fmt.Errorf("-amplify %g; need > 0", *amplify)
	case *dktp < 1:
		return fmt.Errorf("-dkt-period %d; need >= 1 iteration", *dktp)
	}

	sys, err := systems.ByName(*sysName)
	if err != nil {
		return err
	}
	if sys, err = systems.WithQuant(sys, *quant); err != nil {
		return err
	}
	if sys.DKT.Enabled {
		sys.DKT.Period = *dktp
		sys.DKT.Lambda = 1.0
	}
	e, err := env.Get(*envName, *seed)
	if err != nil {
		return err
	}
	// The CPU environments train the real-mode workload; cluster.Run seeds
	// the replicas itself.
	w := systems.NewWorkload(*scale, *seed)
	dc, model := w.Data, w.Spec
	if e.GPU {
		dc = data.ImageNet100Config(*scale/25, w.Data.Seed)
		model = nn.MobileNetLiteSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 0)
	}
	model.WireBytes = int(float64(model.WireBytes) * *amplify)

	cfg := cluster.Config{
		System: sys, Model: model, Data: dc,
		N: e.N, Computes: e.Computes, Network: e.Network,
		Horizon: *horizon, Seed: *seed,
	}
	if *trace {
		cfg.TracePeriod = *horizon / 30
	}
	cfg.Observe = *repOut != ""
	fmt.Fprintf(stdout, "running %s in %s for %.0f virtual seconds (%s, %d train samples)\n",
		sys.Name, e.Name, *horizon, dc.Name, dc.Train)
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}

	t := report.NewTable("accuracy timeline", "t(s)", "mean acc", "stddev", "loss")
	var ys []float64
	for _, pt := range res.Timeline {
		t.AddRow(fmt.Sprintf("%.0f", pt.T), pt.Mean, fmt.Sprintf("%.3f", pt.Std),
			fmt.Sprintf("%.3f", pt.Loss))
		ys = append(ys, pt.Mean)
	}
	fmt.Fprintln(stdout, t)
	fmt.Fprintln(stdout, "trend:", report.Sparkline(ys))
	fmt.Fprintf(stdout, "final accuracy %.3f | iterations per worker %v | %d MB sent\n",
		res.Timeline.FinalMean(), res.Iters, res.TotalBytes>>20)
	if *trace {
		tt := report.NewTable("traces", "t(s)", "GBS", "LBS", "values w0->w1")
		for _, tr := range res.Traces {
			tt.AddRow(fmt.Sprintf("%.0f", tr.T), tr.GBS,
				fmt.Sprint(tr.LBS), tr.SelCount[[2]int{0, 1}])
		}
		fmt.Fprintln(stdout, tt)
	}
	if *repOut != "" {
		r := buildReport(res, *sysName, *envName, *horizon, *scale, *amplify, *seed)
		if err := r.WriteFile(*repOut); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "run report written to", *repOut)
	}
	return nil
}

// buildReport assembles the BENCH JSON run report (METRICS.md "sim-run"
// kind) from a finished simulation: per-worker phase breakdown, transport
// counters, accuracy timeline, and headline summary.
func buildReport(res *cluster.Result, sysName, envName string,
	horizon, scale, amplify float64, seed uint64) *obs.Report {
	r := obs.NewReport("sim-run", sysName+"/"+envName)
	r.Config = map[string]any{
		"system": sysName, "env": envName, "horizon": horizon,
		"scale": scale, "amplify": amplify, "seed": seed,
	}
	r.Workers = res.Obs
	var quantSaved int64
	for _, st := range res.Stats {
		quantSaved += st.QuantBytesSaved
	}
	r.Counters = map[string]int64{
		"net.delivered_bytes":    res.TotalBytes,
		"wire.quant_bytes_saved": quantSaved,
		"fault.partition_drops":  res.Faults.Partitioned,
		"fault.loss_drops":       res.Faults.Lost,
		"fault.corrupt_drops":    res.Faults.Corrupted,
		"fault.dead_drops":       res.Faults.DeadDrops,
		"fault.crashes":          res.Faults.Crashes,
		"fault.restarts":         res.Faults.Restarts,
	}
	for _, pt := range res.Timeline {
		r.Timeline = append(r.Timeline, obs.TimelinePoint{
			T: pt.T, MeanAcc: pt.Mean, StdAcc: pt.Std, Loss: pt.Loss})
	}
	var iters int64
	for _, it := range res.Iters {
		iters += it
	}
	r.Summary = map[string]float64{
		"final_acc":       res.Timeline.FinalMean(),
		"best_acc":        res.Timeline.BestMean(),
		"final_deviation": res.Timeline.FinalDeviation(),
		"total_iters":     float64(iters),
		"delivered_mb":    float64(res.TotalBytes) / (1 << 20),
	}
	return r
}
