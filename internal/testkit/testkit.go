// Package testkit is the repo's conformance harness: the machinery that
// proves the DLion reproduction computes the same math everywhere it
// claims to. It provides three gates, all exercised by this package's own
// tests and wired into `make conformance`:
//
//   - Gradcheck (gradcheck.go): every layer's analytic backward pass is
//     validated against central finite differences of the loss.
//   - Cross-mode equivalence (equivalence.go): the same seeded workload is
//     trained once on the discrete-event simulator (internal/cluster) and
//     once on the realtime broker path (internal/realtime), and the final
//     per-variable weights must agree — bit-identical when no reordering
//     occurred, tolerance-bounded where float32 apply order differs.
//   - Golden convergence gates (golden.go): seeded sim runs are compared
//     against committed testdata/golden/*.json snapshots, failing when a
//     change shifts convergence beyond tolerance.
//
// This file holds the shared primitive: tolerance-bounded weight
// comparison. Exact comparison uses the digests lineage manifests commit to
// (lineage.VarHashes, lineage.ModelHash), so a conformance digest and a
// published checkpoint digest are directly comparable.
package testkit

import (
	"fmt"
	"math"
	"sort"

	"dlion/internal/tensor"
)

// CompareWeights checks that two weight maps hold the same variables with
// the same shapes and elementwise values within
//
//	|a - b| <= absTol + relTol·max(|a|, |b|)
//
// It returns nil when everything agrees, or an error naming the worst
// offending element. NaN on either side is always a mismatch.
func CompareWeights(a, b map[string]*tensor.Tensor, absTol, relTol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("testkit: variable count %d vs %d", len(a), len(b))
	}
	names := make([]string, 0, len(a))
	for name := range a {
		if _, ok := b[name]; !ok {
			return fmt.Errorf("testkit: variable %q missing from second map", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	var worst struct {
		name   string
		idx    int
		av, bv float64
		excess float64 // how far past the tolerance
	}
	worst.excess = -1
	for _, name := range names {
		ta, tb := a[name], b[name]
		if len(ta.Data) != len(tb.Data) {
			return fmt.Errorf("testkit: %s: length %d vs %d", name, len(ta.Data), len(tb.Data))
		}
		for i := range ta.Data {
			av, bv := float64(ta.Data[i]), float64(tb.Data[i])
			if math.IsNaN(av) || math.IsNaN(bv) {
				return fmt.Errorf("testkit: %s[%d]: NaN (%v vs %v)", name, i, av, bv)
			}
			diff := math.Abs(av - bv)
			tol := absTol + relTol*math.Max(math.Abs(av), math.Abs(bv))
			if diff-tol > worst.excess {
				worst.excess = diff - tol
				worst.name, worst.idx, worst.av, worst.bv = name, i, av, bv
			}
		}
	}
	if worst.excess > 0 {
		return fmt.Errorf("testkit: weights diverge: %s[%d] = %v vs %v (|Δ|=%.3g exceeds tol by %.3g)",
			worst.name, worst.idx, worst.av, worst.bv,
			math.Abs(worst.av-worst.bv), worst.excess)
	}
	return nil
}

// MaxAbsDiff returns the largest elementwise |a-b| across all variables —
// useful for reporting how close an equivalence run actually came.
func MaxAbsDiff(a, b map[string]*tensor.Tensor) float64 {
	worst := 0.0
	for name, ta := range a {
		tb, ok := b[name]
		if !ok || len(ta.Data) != len(tb.Data) {
			return math.Inf(1)
		}
		for i := range ta.Data {
			d := math.Abs(float64(ta.Data[i]) - float64(tb.Data[i]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
