package core

import (
	"dlion/internal/stats"
)

// computeRCP derives a worker's relative compute power from profiling
// measurements: iteration seconds are fitted against batch size by linear
// regression (§3.2), and RCP is the number of samples the worker can
// process per unit time, i.e. the reciprocal of the per-sample slope. A
// degenerate or non-positive fit (all-equal batch sizes, dominating noise)
// falls back to a throughput estimate from the largest measured batch so
// the controller always produces something usable.
func computeRCP(batchSizes, seconds []float64) float64 {
	fit, err := stats.LinearRegression(batchSizes, seconds)
	if err == nil && fit.Slope > 0 {
		return 1 / fit.Slope
	}
	// fallback: crude throughput at the largest batch
	bestB, bestT := 0.0, 0.0
	for i, b := range batchSizes {
		if b > bestB {
			bestB, bestT = b, seconds[i]
		}
	}
	if bestB > 0 && bestT > 0 {
		return bestB / bestT
	}
	return 1
}

// minLBS floors each worker's share of the global batch.
const minLBS = 1

// lbsShares implements Eq. 5: LBS_i = GBS · RCP_i / Σ_j RCP_j, with every
// share at least floor. rcp holds each worker's latest reported RCP; workers
// without a report (anything not > 0) get the mean of the known ones (cold
// start). rcp is the function's working storage and is overwritten.
func lbsShares(gbs int, rcp []float64, floor int) []int {
	n := len(rcp)
	shares := make([]int, n)
	var sum, known float64
	for i, v := range rcp {
		if v > 0 {
			sum += v
			known++
		} else {
			rcp[i] = 0
		}
	}
	mean := 1.0
	if known > 0 {
		mean = sum / known
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if rcp[i] == 0 {
			rcp[i] = mean
		}
		total += rcp[i]
	}
	assigned := 0
	for i := 0; i < n; i++ {
		s := int(float64(gbs) * rcp[i] / total)
		if s < floor {
			s = floor
		}
		shares[i] = s
		assigned += s
	}
	// distribute the rounding remainder to the most powerful workers so
	// Σ LBS_i tracks GBS
	for assigned < gbs {
		best := 0
		for i := 1; i < n; i++ {
			if rcp[i] > rcp[best] {
				best = i
			}
		}
		shares[best]++
		assigned++
		rcp[best] *= 0.999 // spread ties
	}
	return shares
}

// profileBatches is the ladder of batch sizes the LBS controller measures.
func profileBatches(initialLBS int) []int {
	b := initialLBS
	if b < 4 {
		b = 4
	}
	return []int{b / 2, b, b * 2, b * 4}
}
