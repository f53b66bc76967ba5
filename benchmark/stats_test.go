package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	// n = 3 is the sim workload: p50 is the middle Run, p99 the slowest.
	three := []float64{12.8, 12.3, 13.1}
	if got := percentile(three, 0.50); got != 12.8 {
		t.Errorf("p50 of 3 = %v, want the middle sample 12.8", got)
	}
	if got := percentile(three, 0.99); got != 13.1 {
		t.Errorf("p99 of 3 = %v, want the largest sample 13.1", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(hundred, c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], n=4) == [1.75, 6.0, 20.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32})
	if !near(q1, 1.75) || !near(q3, 20) {
		t.Errorf("quartiles of powers of two = %v, %v, want 1.75, 20", q1, q3)
	}
}

func TestSegmentMedianRate(t *testing.T) {
	// Four segments of 100 ops taking 1 s, 1 s, 4 s (a stall) and 2 s.
	bounds := []int64{0, 1e9, 2e9, 6e9, 8e9}
	rates := segmentRates(bounds, 100)
	want := []float64{100, 100, 25, 50}
	for i := range want {
		if !near(rates[i], want[i]) {
			t.Fatalf("segment rates %v, want %v", rates, want)
		}
	}
	// The mean rate over the section is 50/s; the median segment says 75/s:
	// the stall moves it less.
	if got := medianRate(bounds, 100); !near(got, 75) {
		t.Errorf("median segment rate = %v, want 75", got)
	}
	if got := medianRate([]int64{5}, 100); got != 0 {
		t.Errorf("no segment: rate %v, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 150}, // overlaps the first: union 110..150
		{Start: 90, End: 105},  // starts before the parent: clipped to 100..105
		{Start: 190, End: 260}, // outlives the parent: clipped to 190..200
		{Start: 300, End: 400}, // entirely outside
		{Start: 125, End: 128}, // inside another child
	}
	if got := selfTime(parent, children); got != 100-(40+5+10) {
		t.Errorf("self time %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("childless self time %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: 0, End: 1000}}); got != 0 {
		t.Errorf("fully covered self time %d, want 0", got)
	}
}

func TestPhaseSharesSumToOne(t *testing.T) {
	shares := phaseShares([]float64{3.1, 0.7, 0.2, 4.9, 0.4})
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
	if !near(shares[3], 4.9/9.3) {
		t.Errorf("recv_wait share %v, want %v", shares[3], 4.9/9.3)
	}
	for _, s := range phaseShares([]float64{0, 0, 0}) {
		if s != 0 {
			t.Errorf("idle layer share %v, want 0", s)
		}
	}
}

func TestAllocIsTheMedianSegment(t *testing.T) {
	// Three segments of 500 ops allocating 20, 20 and 26 MB: one pool refill
	// must not move the metric.
	marks := []procMark{{totalAlloc: 5e6}, {totalAlloc: 25e6}, {totalAlloc: 45e6}, {totalAlloc: 71e6}}
	if got := allocMBPerKop(marks, 500); !near(got, 40) {
		t.Errorf("alloc_mb_per_kop = %v, want 40", got)
	}
}

func TestSizeForIsFixedWork(t *testing.T) {
	for _, w := range workloadNames {
		sz := sizeFor(w, defaultSeconds)
		if sz != sizeFor(w, defaultSeconds) || sz.timed < 1 {
			t.Errorf("%s: size %+v", w, sz)
		}
		if w != "sim_fed256" && (sz.timed%segments != 0 || sz.warm*10 != sz.timed) {
			t.Errorf("%s: %+v does not cut into %d equal segments with a tenth of warm-up", w, sz, segments)
		}
	}
	if sz := sizeFor("serve_swap", defaultSeconds); sz.timed%(segments*swapEvery) != 0 {
		t.Errorf("serve_swap: %d requests do not give whole swaps per segment", sz.timed)
	}
	// the issue's 30-second counts
	if a, b, c, d := sizeFor("train_wire", 30), sizeFor("train_compute", 30), sizeFor("serve_swap", 30),
		sizeFor("sim_fed256", 30); a.timed != 2500 || b.timed != 900 || c.timed != 50000 || d.timed != 3 {
		t.Errorf("30 s sizes %d %d %d %d, want 2500 900 50000 3", a.timed, b.timed, c.timed, d.timed)
	}
}
