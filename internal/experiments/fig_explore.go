package experiments

import (
	"fmt"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/env"
	"dlion/internal/report"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

func init() {
	register("fig5", "Accuracy vs epoch at which GBS doubles", runFig5)
	register("fig6", "LBS adaptation under GBS growth (Hetero CPU A)", runFig6)
	register("fig7", "Final accuracy vs Max N's N", runFig7)
	register("fig8", "Partial gradient size per link vs link bandwidth", runFig8)
	register("fig9a", "Time to target accuracy vs DKT period", runFig9a)
	register("fig9b", "Accuracy for DKT whom-to-send variants", runFig9b)
	register("fig9c", "Accuracy vs DKT merge ratio lambda", runFig9c)
	register("fig19", "LBS adaptation under dynamic compute capacity", runFig19)
	register("fig20", "Partial gradient size under dynamic bandwidth", runFig20)
}

// runFig5 doubles GBS at different training epochs and measures the final
// accuracy: doubling too early (epoch 0/1) should cost accuracy relative
// to doubling later, the finding the GBS controller's warm-up phase is
// built on.
func runFig5(p Profile) (*Outcome, error) {
	t := report.NewTable("Fig 5: accuracy when GBS doubles at a given epoch",
		"GBS doubles at epoch", "Final accuracy")
	o := &Outcome{ID: "fig5", Title: "GBS doubling start epoch"}
	cases := []struct {
		label string
		epoch float64
	}{
		{"0", 0}, {"1", 1}, {"2", 2}, {"4", 4}, {"never", 1e9},
	}
	for _, c := range cases {
		sys := systems.Baseline()
		sys.Name = "GBS@" + c.label
		sys.Batch.GBS = core.GBSConfig{Mode: "schedule", DoubleAtEpoch: c.epoch}
		accs, _, err := p.runAveraged(sys.Name, sys, "Homo A")
		if err != nil {
			return nil, err
		}
		mean := mean(accs)
		t.AddRow(c.label, mean)
		o.addValue("epoch"+c.label, mean)
	}
	o.Text = t.String()
	return o, nil
}

// runFig6 traces per-worker LBS while the auto GBS controller grows the
// global batch in the heterogeneous Hetero CPU A environment. The
// controller caps are pinned to the paper's full CIFAR10 size so growth is
// visible on the scaled dataset.
func runFig6(p Profile) (*Outcome, error) {
	sys := p.system(systems.DLion())
	sys.Batch.GBS = core.GBSConfig{
		Mode: "auto", AdjustPeriod: p.Horizon / 8, WarmupDuration: p.Horizon / 2,
		TrainSetSize: 60000,
	}
	e, err := env.Get("Hetero CPU A", p.Seed)
	if err != nil {
		return nil, err
	}
	cfg := p.clusterConfig(sys, e, 0)
	cfg.TracePeriod = p.TracePeriod
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 6: GBS and per-worker LBS over time (cores 24/24/12/12/6/6)",
		"t(s)", "GBS", "w0", "w1", "w2", "w3", "w4", "w5")
	o := &Outcome{ID: "fig6", Title: "LBS adaptation"}
	for _, tr := range res.Traces {
		t.AddRow(fmt.Sprintf("%.0f", tr.T), tr.GBS,
			tr.LBS[0], tr.LBS[1], tr.LBS[2], tr.LBS[3], tr.LBS[4], tr.LBS[5])
	}
	last := res.Traces[len(res.Traces)-1]
	o.addValue("finalGBS", float64(last.GBS))
	o.addValue("w0_LBS", float64(last.LBS[0]))
	o.addValue("w4_LBS", float64(last.LBS[4]))
	o.Text = t.String()
	return o, nil
}

// runFig7 sweeps Max N's N with everything else disabled.
func runFig7(p Profile) (*Outcome, error) {
	t := report.NewTable("Fig 7: final accuracy vs N (Max N alone, Homo A)",
		"N", "Final accuracy")
	o := &Outcome{ID: "fig7", Title: "Max N sweep"}
	for _, n := range []float64{1, 10, 50, 100} {
		sys := systems.MaxNOnly(n)
		accs, _, err := p.runAveraged(sys.Name, sys, "Homo A")
		if err != nil {
			return nil, err
		}
		m := mean(accs)
		t.AddRow(fmt.Sprintf("%g", n), m)
		o.addValue(fmt.Sprintf("N%g", n), m)
	}
	o.Text = t.String()
	return o, nil
}

// runFig8 gives worker 0 two links with different bandwidths and records
// the partial gradient sizes the per-link prioritized exchange chooses for
// each: the faster link should carry more gradient values.
func runFig8(p Profile) (*Outcome, error) {
	caps := make([]simcompute.Schedule, 6)
	for i := range caps {
		caps[i] = simcompute.Constant(24)
	}
	nw := simnet.New(6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			bw := 50.0
			if i == 0 && j == 2 {
				bw = 50 // worker0 -> worker2: the fast link of Figure 8
			}
			if i == 0 && j == 4 {
				bw = 20 // worker0 -> worker4: the slow link
			}
			nw.SetLink(i, j, simnet.Link{Bandwidth: simcompute.Constant(bw), RTT: env.RTTWan})
		}
	}
	e := env.Custom("Fig8", caps, nw, p.Seed)
	sys := p.system(systems.DLion())
	cfg := p.clusterConfig(sys, e, 0)
	cfg.TracePeriod = p.TracePeriod
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 8: gradient values sent per link (w0->w2 @50Mbps vs w0->w4 @20Mbps)",
		"t(s)", "w0->w2 (values)", "w0->w4 (values)")
	var sumFast, sumSlow, count float64
	for _, tr := range res.Traces {
		fast := tr.SelCount[[2]int{0, 2}]
		slow := tr.SelCount[[2]int{0, 4}]
		t.AddRow(fmt.Sprintf("%.0f", tr.T), fast, slow)
		if fast > 0 || slow > 0 {
			sumFast += float64(fast)
			sumSlow += float64(slow)
			count++
		}
	}
	o := &Outcome{ID: "fig8", Title: "Per-link gradient size", Text: t.String()}
	if count > 0 {
		o.addValue("fastLinkMean", sumFast/count)
		o.addValue("slowLinkMean", sumSlow/count)
	}
	return o, nil
}

// runFig9a sweeps the DKT period and measures time to a target accuracy:
// a moderate period should win over both chatty and rare exchange.
func runFig9a(p Profile) (*Outcome, error) {
	const target = 0.6
	t := report.NewTable(
		fmt.Sprintf("Fig 9a: seconds to %.0f%% accuracy vs DKT period (Homo B)", target*100),
		"DKT period (iterations)", "Time (s)")
	o := &Outcome{ID: "fig9a", Title: "DKT period"}
	periods := []struct {
		label  string
		period int64
	}{
		{"1", 1}, {fmt.Sprintf("%d", p.DKTPeriod), p.DKTPeriod},
		{fmt.Sprintf("%d", p.DKTPeriod*8), p.DKTPeriod * 8}, {"off", 0},
	}
	for _, c := range periods {
		sys := systems.DLion()
		if c.period == 0 {
			sys.DKT.Enabled = false
		} else {
			sys.DKT.Period = c.period
			sys.DKT.Lambda = p.DKTLambda
		}
		e, err := env.Get("Homo B", p.Seed)
		if err != nil {
			return nil, err
		}
		cfg := p.clusterConfig(sys, e, 0)
		cfg.System = sys // bypass profile DKT rescaling: the period IS the variable
		cfg.EvalPeriod = p.EvalPeriod / 3
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		tt, ok := res.Timeline.TimeToAccuracy(target)
		if !ok {
			tt = cfg.Horizon
		}
		t.AddRow(c.label, fmt.Sprintf("%.0f", tt))
		o.addValue("period_"+c.label, tt)
	}
	o.Text = t.String()
	o.Notes = append(o.Notes, "Times equal to the horizon mean the target was not reached.")
	return o, nil
}

// runFig9b compares No_DKT, DKT_Best2worst and DKT_Best2all.
func runFig9b(p Profile) (*Outcome, error) {
	t := report.NewTable("Fig 9b: accuracy for whom-to-send variants (Hetero SYS A)",
		"Variant", "Final accuracy")
	o := &Outcome{ID: "fig9b", Title: "DKT targets"}
	variants := []struct {
		label string
		mut   func(*core.Config)
	}{
		{"No_DKT", func(c *core.Config) { c.DKT.Enabled = false }},
		{"DKT_Best2worst", func(c *core.Config) { c.DKT.Best2Worst = true }},
		{"DKT_Best2all", func(c *core.Config) {}},
	}
	for _, v := range variants {
		sys := systems.DLion()
		v.mut(&sys)
		accs, _, err := p.runAveraged(v.label, sys, "Hetero SYS A")
		if err != nil {
			return nil, err
		}
		m := mean(accs)
		t.AddRow(v.label, m)
		o.addValue(v.label, m)
	}
	o.Text = t.String()
	return o, nil
}

// runFig9c sweeps the DKT merge ratio λ.
func runFig9c(p Profile) (*Outcome, error) {
	t := report.NewTable("Fig 9c: accuracy vs DKT merge ratio lambda (Hetero SYS A)",
		"lambda", "Final accuracy")
	o := &Outcome{ID: "fig9c", Title: "DKT lambda"}
	for _, l := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		sys := systems.DLion()
		if l == 0 {
			sys.DKT.Enabled = false // λ=0 is a no-op merge = No_DKT
		}
		sys.DKT.Lambda = l
		pp := p
		pp.DKTLambda = l
		accs, _, err := pp.runAveraged(sys.Name, sys, "Hetero SYS A")
		if err != nil {
			return nil, err
		}
		m := mean(accs)
		t.AddRow(fmt.Sprintf("%.2f", l), m)
		o.addValue(fmt.Sprintf("lambda%.2f", l), m)
	}
	o.Text = t.String()
	return o, nil
}

// runFig19 traces LBS under the paper's dynamic compute schedule:
// homogeneous 24 cores, then 24/24/12/12/4/4, then 12s, then inverted.
func runFig19(p Profile) (*Outcome, error) {
	ph := p.Horizon / 4
	mk := func(vals ...float64) simcompute.Schedule {
		pairs := make([]float64, 0, 8)
		for i, v := range vals {
			pairs = append(pairs, float64(i)*ph, v)
		}
		return simcompute.Steps(pairs...)
	}
	caps := []simcompute.Schedule{
		mk(24, 24, 12, 4), mk(24, 24, 12, 4),
		mk(24, 12, 12, 12), mk(24, 12, 12, 12),
		mk(24, 4, 12, 24), mk(24, 4, 12, 24),
	}
	e := env.Custom("Fig19", caps, simnet.Uniform(6, simcompute.Constant(env.LANMbps), env.RTTLan), p.Seed)
	sys := p.system(systems.DLion())
	sys.Batch.GBS = core.GBSConfig{Mode: "fixed"} // isolate the LBS controller
	sys.Batch.ProfilePeriod = p.Horizon / 30      // frequent re-profiling
	cfg := p.clusterConfig(sys, e, 0)
	cfg.TracePeriod = p.TracePeriod
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 19: per-worker LBS under changing core counts (GBS fixed 192)",
		"t(s)", "w0", "w1", "w2", "w3", "w4", "w5")
	for _, tr := range res.Traces {
		t.AddRow(fmt.Sprintf("%.0f", tr.T),
			tr.LBS[0], tr.LBS[1], tr.LBS[2], tr.LBS[3], tr.LBS[4], tr.LBS[5])
	}
	o := &Outcome{ID: "fig19", Title: "Dynamic LBS trace", Text: t.String()}
	// headline: late in phase 2 (heterogeneous), w0 (24 cores) should hold
	// a larger share than w4 (4 cores); take the last trace in the phase so
	// the controller has had time to re-profile after the capacity change
	for _, tr := range res.Traces {
		if tr.T > 1.2*ph && tr.T < 2*float64(ph) {
			o.addValue("phase2_w0", float64(tr.LBS[0]))
			o.addValue("phase2_w4", float64(tr.LBS[4]))
		}
	}
	return o, nil
}

// runFig20 traces the per-link partial gradient size while every link's
// bandwidth steps between 30 and 100 Mbps.
func runFig20(p Profile) (*Outcome, error) {
	ph := p.Horizon / 5
	caps := make([]simcompute.Schedule, 6)
	scheds := make([]simcompute.Schedule, 6)
	for i := range caps {
		caps[i] = simcompute.Constant(24)
		// 30 Mbps in [0, ph) and [3ph, horizon); 100 Mbps in between
		scheds[i] = simcompute.Steps(0, 30, ph, 100, 3*ph, 30)
	}
	e := env.Custom("Fig20", caps, simnet.PerWorkerEgress(scheds, env.RTTWan), p.Seed)
	sys := p.system(systems.DLion())
	cfg := p.clusterConfig(sys, e, 0)
	cfg.TracePeriod = p.TracePeriod
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 20: gradient values sent on w0->w1 as bandwidth steps 30/100/30 Mbps",
		"t(s)", "bandwidth (Mbps)", "values sent")
	o := &Outcome{ID: "fig20", Title: "Dynamic gradient size"}
	var lowSum, lowN, highSum, highN float64
	for _, tr := range res.Traces {
		bw, _ := e.Network.BandwidthAt(0, 1, tr.T)
		v := tr.SelCount[[2]int{0, 1}]
		t.AddRow(fmt.Sprintf("%.0f", tr.T), fmt.Sprintf("%.0f", bw), v)
		if v == 0 {
			continue
		}
		if bw < 50 {
			lowSum += float64(v)
			lowN++
		} else {
			highSum += float64(v)
			highN++
		}
	}
	if lowN > 0 && highN > 0 {
		o.addValue("meanAtLowBW", lowSum/lowN)
		o.addValue("meanAtHighBW", highSum/highN)
	}
	o.Text = t.String()
	return o, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
