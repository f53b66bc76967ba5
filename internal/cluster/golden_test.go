package cluster

// Run goldens: the event count, delivered bytes, full evaluation timeline
// and final weight digest of every replica for seeded workloads. The
// federation16 and events6churn rows were captured at the commit BEFORE the
// scheduler, replica-construction and arena changes of DESIGN.md §14 (the
// PR 10 oracle pattern, with the parent commit as oracle). The convergence
// rows (baseline, dlion, quant-i8-2w, quant-i8-4w, dlion-churn) are the
// small Cipher runs whose accuracy/loss curves gate convergence: a change to
// a system preset, the quantizer or the membership protocol that alters what
// workers learn shows up here. Every float is compared bit-for-bit. A change
// that moves any of these values changed what the simulator computes, not
// how fast; on mismatch the failure prints the observed literal, which is
// the one way to regenerate a row (review it like any other diff).

import (
	"fmt"
	"strings"
	"testing"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

type runGolden struct {
	events     uint64
	totalBytes int64
	timeline   Timeline
	models     []lineage.Hash
}

func captureRun(t *testing.T, cfg Config) runGolden {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := runGolden{events: res.Events, totalBytes: res.TotalBytes, timeline: res.Timeline}
	for _, m := range res.Models {
		g.models = append(g.models, lineage.ModelHash(m))
	}
	return g
}

// literal renders g as the Go composite literal this file stores. %v prints
// the shortest decimal that round-trips, so the literal is bit-exact.
func (g runGolden) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runGolden{\n\tevents: %d, totalBytes: %d,\n\ttimeline: Timeline{\n", g.events, g.totalBytes)
	for _, p := range g.timeline {
		fmt.Fprintf(&b, "\t\t{T: %v, Mean: %v, Std: %v, Loss: %v, PerWork: []float64{", p.T, p.Mean, p.Std, p.Loss)
		for i, a := range p.PerWork {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%v", a)
		}
		b.WriteString("}},\n")
	}
	b.WriteString("\t},\n\tmodels: []lineage.Hash{\n")
	for _, h := range g.models {
		fmt.Fprintf(&b, "\t\t0x%s,\n", h)
	}
	b.WriteString("\t},\n}")
	return b.String()
}

func TestRunGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want runGolden
	}{
		{"federation16", FederationConfig(16), goldenFederation16},
		{"events6churn", SimEventsConfig(6, true), goldenEvents6Churn},
		{"baseline", convergenceConfig(systems.Baseline(), 12, 9, 15), goldenBaseline},
		{"dlion", convergenceConfig(systems.DLion(), 12, 9, 15), goldenDLion},
		{"quant-i8-2w", convergenceConfig(quantI8(t), 12, 9), goldenQuantI8x2},
		{"quant-i8-4w", convergenceConfig(quantI8(t), 12, 9, 15, 11), goldenQuantI8x4},
		{"dlion-churn", churnedConvergence(), goldenDLionChurn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := captureRun(t, tc.cfg)
			if g, w := got.literal(), tc.want.literal(); g != w {
				t.Fatalf("run diverged from the pinned golden\ngot:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}

// convergenceConfig is the small seeded workload the convergence rows pin:
// one worker per capacity in caps on the Cipher task, evaluated every 12
// virtual seconds over a 36-second horizon.
func convergenceConfig(sys core.Config, caps ...float64) Config {
	n := len(caps)
	computes := make([]*simcompute.Compute, n)
	for i, c := range caps {
		computes[i] = simcompute.New(simcompute.Constant(c),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	return Config{
		System: sys,
		Model:  nn.CipherSpec(1, 8, 8, 3, 0),
		Data: data.Config{Name: "golden", NumClasses: 3, Train: 240, Test: 60,
			Channels: 1, Height: 8, Width: 8, Noise: 0.35, Jitter: 0, Bumps: 3,
			Seed: 17},
		N:          n,
		Computes:   computes,
		Network:    simnet.Uniform(n, simcompute.Constant(200), 0.001),
		Horizon:    36,
		EvalPeriod: 12,
		EvalSubset: 60,
		EvalBatch:  30,
		Seed:       17,
	}
}

// churnedConvergence is the elastic convergence row: DLion with three
// founders, a fourth worker joining a third of the way in and founder 1
// leaving two thirds of the way in.
func churnedConvergence() Config {
	cfg := convergenceConfig(systems.DLion(), 12, 9, 15, 12)
	cfg.Faults = &fault.Schedule{
		Joins:  []fault.Join{{Worker: 3, At: 12, Sponsor: 0}},
		Leaves: []fault.Leave{{Worker: 1, At: 24}},
	}
	return cfg
}

// quantI8 is DLion with every link forced to int8 wire precision.
func quantI8(t *testing.T) core.Config {
	sys, err := systems.WithQuant(systems.DLion(), "i8")
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGoldenSanity: the convergence rows pin runs that actually learned, so
// a row regenerated from a broken build cannot pass as a golden.
func TestGoldenSanity(t *testing.T) {
	for name, g := range map[string]runGolden{
		"baseline": goldenBaseline, "dlion": goldenDLion, "quant-i8-2w": goldenQuantI8x2,
		"quant-i8-4w": goldenQuantI8x4, "dlion-churn": goldenDLionChurn,
	} {
		if len(g.timeline) < 2 || len(g.models) == 0 {
			t.Fatalf("%s: degenerate golden: %d points, %d replicas", name, len(g.timeline), len(g.models))
		}
		if final := g.timeline[len(g.timeline)-1].Mean; final < 0.5 {
			t.Errorf("%s: final mean accuracy %.3f: a golden of a run that never learned", name, final)
		}
	}
}

var goldenFederation16 = runGolden{
	events: 369, totalBytes: 226078716,
	timeline: Timeline{
		{T: 0, Mean: 0.4333333333333335, Std: 1.7199501139797033e-16, Loss: 1.3770815731007566, PerWork: []float64{0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335}},
		{T: 2, Mean: 0.42395833333333344, Std: 0.10987682497536354, Loss: 1.2104367093327768, PerWork: []float64{0.31666666666666665, 0.31666666666666665, 0.31666666666666665, 0.31666666666666665, 0.31666666666666665, 0.31666666666666665, 0.6166666666666667, 0.6166666666666667, 0.6166666666666667, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335}},
	},
	models: []lineage.Hash{
		0xb2477d751a6cf2f2,
		0x93997b0929bb7887,
		0xb71bd4b6b7096a58,
		0x6e8c988d925789f0,
		0x40f86b7f6ae04654,
		0xa511b2b4167e48f7,
		0xe0a0ff9f93ec2ad2,
		0x0f3609956f9ddfa9,
		0x1d2067f4e30eb8f6,
		0xfaa31e298c9843e8,
		0xaa632b3182b1ff61,
		0x81b664c64c4e22e5,
		0x7c676ff5350ef323,
		0xc16c9c1dbe5f1884,
		0x5eb0eef902f5235c,
		0x3dae7074ca820443,
	},
}

var goldenEvents6Churn = runGolden{
	events: 191, totalBytes: 619470711,
	timeline: Timeline{
		{T: 0, Mean: 0.4333333333333334, Std: 6.206335383118183e-17, Loss: 1.3770815731007566, PerWork: []float64{0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335, 0.43333333333333335}},
		{T: 8, Mean: 0.8861111111111111, Std: 0.08056513353021107, Loss: 0.3613086188240142, PerWork: []float64{0.8833333333333333, 0.7333333333333333, 0.95, 0.8833333333333333, 0.9166666666666666, 0.95}},
	},
	models: []lineage.Hash{
		0xb3884a24bf73c72c,
		0xd11359d42a8f5bf2,
		0x761516ef2a000542,
		0x29305d1e7062f38f,
		0x3e27b7ebc140cfed,
		0x9a562140bd80d081,
	},
}

var goldenBaseline = runGolden{
	events: 172, totalBytes: 587588400,
	timeline: Timeline{
		{T: 0, Mean: 0.05000000000000001, Std: 8.498374721940739e-18, Loss: 2.159281379877521, PerWork: []float64{0.05, 0.05, 0.05}},
		{T: 12, Mean: 1, Std: 0, Loss: 0.009861997566912844, PerWork: []float64{1, 1, 1}},
		{T: 24, Mean: 1, Std: 0, Loss: 0.00603613370325393, PerWork: []float64{1, 1, 1}},
		{T: 36, Mean: 1, Std: 0, Loss: 0.004630209012006701, PerWork: []float64{1, 1, 1}},
	},
	models: []lineage.Hash{
		0x1759943bb48b2db6,
		0xd32cc8b842ecedf9,
		0x0bdfe597edb12136,
	},
}

var goldenDLion = runGolden{
	events: 237, totalBytes: 792195225,
	timeline: Timeline{
		{T: 0, Mean: 0.05000000000000001, Std: 8.498374721940739e-18, Loss: 2.159281379877521, PerWork: []float64{0.05, 0.05, 0.05}},
		{T: 12, Mean: 1, Std: 0, Loss: 0.007293413694135212, PerWork: []float64{1, 1, 1}},
		{T: 24, Mean: 1, Std: 0, Loss: 0.0035484465100614087, PerWork: []float64{1, 1, 1}},
		{T: 36, Mean: 1, Std: 0, Loss: 0.0025529077444720323, PerWork: []float64{1, 1, 1}},
	},
	models: []lineage.Hash{
		0x73a3668bc6a1092a,
		0x84b4b063033cdd44,
		0xc1a4b345c16f4012,
	},
}

var goldenQuantI8x2 = runGolden{
	events: 95, totalBytes: 59137475,
	timeline: Timeline{
		{T: 0, Mean: 0.05, Std: 0, Loss: 2.159281379877521, PerWork: []float64{0.05, 0.05}},
		{T: 12, Mean: 1, Std: 0, Loss: 0.004279276525959632, PerWork: []float64{1, 1}},
		{T: 24, Mean: 1, Std: 0, Loss: 0.0026347384483599136, PerWork: []float64{1, 1}},
		{T: 36, Mean: 1, Std: 0, Loss: 0.0020544399902711536, PerWork: []float64{1, 1}},
	},
	models: []lineage.Hash{
		0xcbc3ed632594073c,
		0x21cbc261f6f60a0c,
	},
}

var goldenQuantI8x4 = runGolden{
	events: 416, totalBytes: 394249800,
	timeline: Timeline{
		{T: 0, Mean: 0.05, Std: 0, Loss: 2.159281379877521, PerWork: []float64{0.05, 0.05, 0.05, 0.05}},
		{T: 12, Mean: 1, Std: 0, Loss: 0.005497919549450986, PerWork: []float64{1, 1, 1, 1}},
		{T: 24, Mean: 1, Std: 0, Loss: 0.003323037145119195, PerWork: []float64{1, 1, 1, 1}},
		{T: 36, Mean: 1, Std: 0, Loss: 0.0024011281165804365, PerWork: []float64{1, 1, 1, 1}},
	},
	models: []lineage.Hash{
		0x9b67e6180b649f1c,
		0x8e22102905aceea3,
		0x4185ba7d9571d9cc,
		0x0a0b28eae1cbbf94,
	},
}

var goldenDLionChurn = runGolden{
	events: 359, totalBytes: 1243782874,
	timeline: Timeline{
		{T: 0, Mean: 0.05000000000000001, Std: 8.498374721940739e-18, Loss: 2.159281379877521, PerWork: []float64{0.05, 0.05, 0.05}},
		{T: 12, Mean: 1, Std: 0, Loss: 0.0058110971510261416, PerWork: []float64{1, 1, 1}},
		{T: 24, Mean: 1, Std: 0, Loss: 0.0030530010390985613, PerWork: []float64{1, 1, 1, 1}},
		{T: 36, Mean: 1, Std: 0, Loss: 0.0022474717446092094, PerWork: []float64{1, 1, 1, 1}},
	},
	models: []lineage.Hash{
		0x0ea2c510832fb40a,
		0x89f7dc00743c54fc,
		0xbd1197439d154022,
		0x74d92dadcce74917,
	},
}
