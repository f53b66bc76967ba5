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

// runFig6 traces per-worker LBS while the auto GBS controller grows the
// global batch in the heterogeneous Hetero CPU A environment. The
// controller caps are pinned to the paper's full CIFAR10 size so growth is
// visible on the scaled dataset.
func runFig6(p Profile) (*Outcome, error) {
	sys := systems.DLion()
	sys.Batch.GBS = core.GBSConfig{
		Mode: "auto", AdjustPeriod: p.Horizon / 8, WarmupDuration: p.Horizon / 2,
		TrainSetSize: 60000,
	}
	e, err := env.Get("Hetero CPU A", p.Seed)
	if err != nil {
		return nil, err
	}
	traces, err := p.traces(sys, e)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 6: GBS and per-worker LBS over time (cores 24/24/12/12/6/6)",
		"t(s)", "GBS", "w0", "w1", "w2", "w3", "w4", "w5")
	o := &Outcome{}
	for _, tr := range traces {
		t.AddRow(fmt.Sprintf("%.0f", tr.T), tr.GBS,
			tr.LBS[0], tr.LBS[1], tr.LBS[2], tr.LBS[3], tr.LBS[4], tr.LBS[5])
	}
	last := traces[len(traces)-1]
	o.addValue("finalGBS", float64(last.GBS))
	o.addValue("w0_LBS", float64(last.LBS[0]))
	o.addValue("w4_LBS", float64(last.LBS[4]))
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
			bw := 50.0 // worker0 -> worker2 among them: the fast link of Figure 8
			if i == 0 && j == 4 {
				bw = 20 // worker0 -> worker4: the slow link
			}
			nw.SetLink(i, j, simnet.Link{Bandwidth: simcompute.Constant(bw), RTT: env.RTTWan})
		}
	}
	traces, err := p.traces(systems.DLion(), env.Custom("Fig8", caps, nw, p.Seed))
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 8: gradient values sent per link (w0->w2 @50Mbps vs w0->w4 @20Mbps)",
		"t(s)", "w0->w2 (values)", "w0->w4 (values)")
	var sumFast, sumSlow, count float64
	for _, tr := range traces {
		fast := tr.SelCount[[2]int{0, 2}]
		slow := tr.SelCount[[2]int{0, 4}]
		t.AddRow(fmt.Sprintf("%.0f", tr.T), fast, slow)
		if fast > 0 || slow > 0 {
			sumFast += float64(fast)
			sumSlow += float64(slow)
			count++
		}
	}
	o := &Outcome{Text: t.String()}
	if count > 0 {
		o.addValue("fastLinkMean", sumFast/count)
		o.addValue("slowLinkMean", sumSlow/count)
	}
	return o, nil
}

// runFig9a sweeps the DKT period and measures time to a target accuracy:
// a moderate period should win over both chatty and rare exchange.
func runFig9a(p Profile) (*Outcome, error) {
	t := report.NewTable("Fig 9a: seconds to 60% accuracy vs DKT period (Homo B)",
		"DKT period (iterations)", "Time (s)")
	o := &Outcome{Notes: []string{"Times equal to the horizon mean the target was not reached."}}
	e, err := env.Get("Homo B", p.Seed)
	if err != nil {
		return nil, err
	}
	for _, period := range []int64{1, p.DKTPeriod, p.DKTPeriod * 8, 0} {
		label, sys := fmt.Sprint(period), systems.DLion()
		if period == 0 {
			label, sys.DKT.Enabled = "off", false
		} else {
			sys.DKT.Period, sys.DKT.Lambda = period, p.DKTLambda
		}
		cfg := p.clusterConfig(sys, e, 0)
		cfg.System = sys // bypass profile DKT rescaling: the period IS the variable
		cfg.EvalPeriod = p.EvalPeriod / 3
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		tt := timeTo60(res.Timeline, cfg.Horizon)
		t.AddRow(label, fmt.Sprintf("%.0f", tt))
		o.addValue("period_"+label, tt)
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
	sys := systems.DLion()
	sys.Batch.GBS = core.GBSConfig{Mode: "fixed"} // isolate the LBS controller
	sys.Batch.ProfilePeriod = p.Horizon / 30      // frequent re-profiling
	traces, err := p.traces(sys, e)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 19: per-worker LBS under changing core counts (GBS fixed 192)",
		"t(s)", "w0", "w1", "w2", "w3", "w4", "w5")
	for _, tr := range traces {
		t.AddRow(fmt.Sprintf("%.0f", tr.T),
			tr.LBS[0], tr.LBS[1], tr.LBS[2], tr.LBS[3], tr.LBS[4], tr.LBS[5])
	}
	o := &Outcome{Text: t.String()}
	// headline: late in phase 2 (heterogeneous), w0 (24 cores) should hold
	// a larger share than w4 (4 cores); take the last trace in the phase so
	// the controller has had time to re-profile after the capacity change
	for _, tr := range traces {
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
	traces, err := p.traces(systems.DLion(), e)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 20: gradient values sent on w0->w1 as bandwidth steps 30/100/30 Mbps",
		"t(s)", "bandwidth (Mbps)", "values sent")
	o := &Outcome{}
	var lowSum, lowN, highSum, highN float64
	for _, tr := range traces {
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

// traces runs sys once in e, sampling every worker's batch sizes and
// per-link selections each p.TracePeriod: the one run behind Figures 6, 8,
// 19 and 20.
func (p Profile) traces(sys core.Config, e *env.Env) ([]cluster.Trace, error) {
	cfg := p.clusterConfig(sys, e, 0)
	cfg.TracePeriod = p.TracePeriod
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	return res.Traces, nil
}

// runFig21 trains each system in Homo A until the accuracy timeline
// plateaus, reporting the converged accuracy and the time to reach it.
func runFig21(p Profile) (*Outcome, error) {
	t := report.NewTable("Fig 21: converged accuracy and time to convergence (Homo A)",
		"System", "Final accuracy", "Convergence time (s)")
	maxTime := 2 * p.Horizon
	o := &Outcome{Notes: []string{fmt.Sprintf(
		"Times equal to %.0f s (2x horizon) mean no plateau was found before that cap (censored).", maxTime)}}
	e, err := env.Get("Homo A", p.Seed)
	if err != nil {
		return nil, err
	}
	for _, sys := range systems.All() {
		res, convT, err := cluster.RunUntilConverged(p.clusterConfig(sys, e, 0), 3, 0.01, maxTime)
		if err != nil {
			return nil, err
		}
		acc := res.Timeline.FinalMean()
		t.AddRow(sys.Name, acc, fmt.Sprintf("%.0f", convT))
		o.addValue("acc/"+sys.Name, acc)
		o.addValue("time/"+sys.Name, convT)
	}
	o.Text = t.String()
	return o, nil
}
