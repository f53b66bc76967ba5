package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of vals: the
// smallest sample with at least a share q of the samples at or below it.
// With n = 3 (the sim workload's per-Run wall times) p50 is therefore the
// middle sample and p99 the slowest one. vals is sorted in place.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	k := int(math.Ceil(q*float64(len(vals)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(vals) {
		k = len(vals) - 1
	}
	return vals[k]
}

// median returns the middle sample of vals (mean of the middle two when the
// count is even). vals is sorted in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// quartiles returns the first and third quartile of vals the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), which is what the
// driver's spread rule is defined on. It needs at least two samples.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// segmentRates cuts a timed section into equal-op segments and returns each
// segment's rate in ops per second. bounds holds the len(rates)+1 boundary
// timestamps in nanoseconds; every segment completed opsPerSegment ops.
func segmentRates(bounds []int64, opsPerSegment float64) []float64 {
	if len(bounds) < 2 {
		return nil
	}
	rates := make([]float64, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		d := float64(bounds[i]-bounds[i-1]) / 1e9
		if d <= 0 {
			rates = append(rates, 0)
			continue
		}
		rates = append(rates, opsPerSegment/d)
	}
	return rates
}

// medianRate is the end-to-end ops_per_s: the median segment rate, so one
// slow stretch of the box moves it less than it moves a whole-section mean.
func medianRate(bounds []int64, opsPerSegment float64) float64 {
	return median(segmentRates(bounds, opsPerSegment))
}

// span is one timed interval at a layer boundary. Spans of one operation
// share (Worker, ID); Parent is an index into the recorder's slice, or -1.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	ID     int64  `json:"id"` // iteration or request number
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of the
// parent (an asynchronous send outliving its iteration); the covered part
// is the union of the children clipped to the parent.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		covered += v.b - v.a
		end = v.b
	}
	return (parent.End - parent.Start) - covered
}

// phaseShares normalises accumulated phase seconds into fractions that sum
// to 1. An all-zero input (a layer that never ran) yields all zeros.
func phaseShares(seconds []float64) []float64 {
	out := make([]float64, len(seconds))
	var sum float64
	for _, s := range seconds {
		sum += s
	}
	if sum <= 0 {
		return out
	}
	for i, s := range seconds {
		out[i] = s / sum
	}
	return out
}
