package core

import (
	"math"
	"testing"
)

func TestComputeRCPFromCleanProfile(t *testing.T) {
	// seconds = 0.1 + 0.05·batch  =>  RCP = 20 samples/sec
	x := []float64{16, 32, 64, 128}
	y := make([]float64, len(x))
	for i, b := range x {
		y[i] = 0.1 + 0.05*b
	}
	got := computeRCP(x, y)
	if math.Abs(got-20) > 1e-9 {
		t.Fatalf("RCP = %v, want 20", got)
	}
}

func TestComputeRCPProportionalToCapacity(t *testing.T) {
	// A 4x faster worker must have 4x the RCP.
	mk := func(capacity float64) float64 {
		x := []float64{16, 32, 64, 128}
		y := make([]float64, len(x))
		for i, b := range x {
			y[i] = 0.05 + 2.0*b/capacity
		}
		return computeRCP(x, y)
	}
	r24, r6 := mk(24), mk(6)
	if math.Abs(r24/r6-4) > 1e-6 {
		t.Fatalf("RCP ratio %v, want 4", r24/r6)
	}
}

func TestComputeRCPDegenerateFallback(t *testing.T) {
	// constant batch sizes -> regression degenerate -> throughput fallback
	got := computeRCP([]float64{32, 32, 32}, []float64{2, 2, 2})
	if got != 16 {
		t.Fatalf("fallback RCP = %v, want 32/2", got)
	}
	// completely empty
	if got := computeRCP(nil, nil); got != 1 {
		t.Fatalf("empty RCP = %v, want 1", got)
	}
	// negative slope (noise dominated): fallback
	got = computeRCP([]float64{10, 20}, []float64{5, 1})
	if got != 20.0/1.0 {
		t.Fatalf("negative slope RCP = %v", got)
	}
}

func TestLBSSharesEqualCapacity(t *testing.T) {
	rcp := []float64{10, 10, 10}
	shares := lbsShares(96, rcp, 1)
	total := 0
	for i, s := range shares {
		if s != 32 {
			t.Fatalf("worker %d share %d, want 32", i, s)
		}
		total += s
	}
	if total != 96 {
		t.Fatalf("sum %d", total)
	}
}

func TestLBSSharesProportional(t *testing.T) {
	// cores 24/12/6/6 at GBS 192: shares 96/48/24/24
	rcp := []float64{24, 12, 6, 6}
	shares := lbsShares(192, rcp, 1)
	want := []int{96, 48, 24, 24}
	for i := range want {
		if shares[i] != want[i] {
			t.Fatalf("shares %v, want %v", shares, want)
		}
	}
}

func TestLBSSharesSumTracksGBS(t *testing.T) {
	rcp := []float64{7, 13, 29, 3, 17, 11}
	for _, gbs := range []int{50, 192, 1000, 777} {
		shares := lbsShares(gbs, append([]float64(nil), rcp...), 1)
		sum := 0
		for _, s := range shares {
			sum += s
		}
		if sum < gbs || sum > gbs+6 {
			t.Fatalf("GBS %d: shares sum %d", gbs, sum)
		}
	}
}

func TestLBSSharesMinFloor(t *testing.T) {
	rcp := []float64{1000, 1}
	shares := lbsShares(64, rcp, 4)
	if shares[1] < 4 {
		t.Fatalf("floor violated: %v", shares)
	}
}

func TestLBSSharesColdStart(t *testing.T) {
	// no reports at all: even split
	shares := lbsShares(60, make([]float64, 6), 1)
	for _, s := range shares {
		if s != 10 {
			t.Fatalf("cold start shares %v", shares)
		}
	}
	// partial reports: unknown workers get the mean of known
	shares = lbsShares(90, []float64{10, 20, 0}, 1)
	// filled: 10, 20, 15 -> 20, 40, 30
	if shares[0] != 20 || shares[1] != 40 || shares[2] != 30 {
		t.Fatalf("partial shares %v", shares)
	}
}

func TestProfileBatchesLadder(t *testing.T) {
	b := profileBatches(32)
	if len(b) != 4 || b[0] != 16 || b[3] != 128 {
		t.Fatalf("ladder %v", b)
	}
	b = profileBatches(1)
	for _, v := range b {
		if v < 1 {
			t.Fatalf("ladder has non-positive batch: %v", b)
		}
	}
}
