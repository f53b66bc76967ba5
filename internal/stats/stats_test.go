package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams too similar: %d/64 equal", same)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(7)
	c1, c2 := r.Split(0), r.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split streams should differ")
	}
	// Split must not disturb parent.
	p1 := NewRNG(7)
	p1.Split(0)
	p2 := NewRNG(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split mutated parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnUniformish(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d badly skewed: %d", i, c)
		}
	}
}

func TestIntnZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearRegressionExact(t *testing.T) {
	// y = 3 + 2x exactly
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 7, 9, 11, 13}
	fit, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-3) > 1e-9 || math.Abs(fit.Slope-2) > 1e-9 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	r := NewRNG(9)
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 1.5+0.25*xi+0.01*r.NormFloat64())
	}
	fit, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.25) > 0.01 {
		t.Fatalf("slope = %v, want ≈0.25", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v, want ≈1", fit.R2)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{2}); err != ErrDegenerate {
		t.Fatalf("one point: err = %v", err)
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrDegenerate {
		t.Fatalf("zero x-variance: err = %v", err)
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Median-4.5) > 1e-9 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary should be zero")
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.CI95 != 0 || s.Median != 3 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestCI95ThreeRuns(t *testing.T) {
	// Paper averages 3 runs; CI should use t(df=2)=4.303.
	s := Summarize([]float64{10, 12, 14})
	want := 4.303 * s.Std / math.Sqrt(3)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", s.CI95, want)
	}
}

func TestMeanStdHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 3}) != 2 {
		t.Fatal("Mean")
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize reordered caller's slice")
	}
}
