package dlion_test

// The benchmark harness: one sub-benchmark per table and figure of the
// paper's evaluation, in paper order. Each runs the experiment from
// internal/experiments on the fast profile and reports its headline values
// as benchmark metrics; run with -v to see the full rendered table.
//
//	go test -bench=Paper/fig11 -benchtime=1x .
//	go test -bench=Paper -benchmem .        # the whole evaluation (slow)
//
// Absolute numbers differ from the paper (synthetic data, scaled models,
// simulated time); the shapes and orderings are the reproduction target —
// see EXPERIMENTS.md for the recorded comparison, and RESULTS.json (make
// paper) for the pinned values.

import (
	"strings"
	"testing"

	"dlion/internal/experiments"
)

// BenchmarkPaper executes each experiment once per iteration (the
// multi-second runtime keeps b.N at 1 under the default -benchtime).
func BenchmarkPaper(b *testing.B) {
	p := experiments.Fast()
	for _, exp := range experiments.All() {
		b.Run(exp.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := exp.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", o.Text)
					for _, n := range o.Notes {
						b.Logf("note: %s", n)
					}
					for k, v := range o.Values {
						b.ReportMetric(v, sanitizeMetric(k))
					}
				}
			}
		})
	}
}

// sanitizeMetric makes experiment value keys valid benchmark unit names.
func sanitizeMetric(k string) string {
	k = strings.ReplaceAll(k, " ", "_")
	return strings.ReplaceAll(k, "/", ":")
}
