package cluster

// Run goldens: the event count, delivered bytes, full evaluation timeline
// and final weight digest of every replica for two seeded workloads,
// captured at the commit BEFORE the scheduler, replica-construction and
// arena changes of DESIGN.md §14 (the PR 10 oracle pattern, with the parent
// commit as oracle). Every float is compared bit-for-bit. A change that
// moves any of these values changed what the simulator computes, not how
// fast; on mismatch the failure prints the observed literal.

import (
	"fmt"
	"strings"
	"testing"

	"dlion/internal/lineage"
	"dlion/internal/metrics"
)

type runGolden struct {
	events     uint64
	totalBytes int64
	timeline   metrics.Timeline
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
	fmt.Fprintf(&b, "runGolden{\n\tevents: %d, totalBytes: %d,\n\ttimeline: metrics.Timeline{\n", g.events, g.totalBytes)
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := captureRun(t, tc.cfg)
			if g, w := got.literal(), tc.want.literal(); g != w {
				t.Fatalf("run diverged from the pinned golden\ngot:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}

var goldenFederation16 = runGolden{
	events: 369, totalBytes: 226078716,
	timeline: metrics.Timeline{
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
	timeline: metrics.Timeline{
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
