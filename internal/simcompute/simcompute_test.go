package simcompute

import (
	"math"
	"testing"
	"testing/quick"

	"dlion/internal/stats"
)

func TestConstantSchedule(t *testing.T) {
	s := Constant(24)
	for _, tt := range []float64{0, 1, 1e9} {
		if s.At(tt) != 24 {
			t.Fatalf("At(%v) = %v", tt, s.At(tt))
		}
	}
}

func TestStepsSchedule(t *testing.T) {
	s := Steps(0, 24, 100, 12, 300, 4)
	cases := []struct{ t, want float64 }{
		{-5, 24}, {0, 24}, {99.9, 24}, {100, 12}, {299, 12}, {300, 4}, {1e6, 4},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStepsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { Steps() },
		"odd":      func() { Steps(0, 1, 2) },
		"unsorted": func() { Steps(0, 1, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIterTimeScalesWithCapacity(t *testing.T) {
	cost := CostModel{Overhead: 0.01, PerSample: 0.002}
	fast := New(Constant(24), cost, 1)
	slow := New(Constant(4), cost, 2)
	tf, ts := fast.IterTime(nil, 96, 0), slow.IterTime(nil, 96, 0)
	if ts <= tf {
		t.Fatalf("slow worker should be slower: %v vs %v", ts, tf)
	}
	// ratio of the variable part should be exactly 6x
	wantRatio := 6.0
	gotRatio := (ts - cost.Overhead) / (tf - cost.Overhead)
	if math.Abs(gotRatio-wantRatio) > 1e-9 {
		t.Fatalf("ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestIterTimeLinearInBatch(t *testing.T) {
	c := New(Constant(10), CostModel{Overhead: 0.05, PerSample: 0.001}, 1)
	t32 := c.IterTime(nil, 32, 0)
	t64 := c.IterTime(nil, 64, 0)
	if math.Abs((t64-0.05)-2*(t32-0.05)) > 1e-12 {
		t.Fatalf("not linear: %v %v", t32, t64)
	}
}

func TestIterTimeZeroCapacity(t *testing.T) {
	c := New(Constant(0), CostModel{PerSample: 0.001}, 1)
	got := c.IterTime(nil, 10, 0)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("zero capacity must not blow up: %v", got)
	}
	if got <= 0 {
		t.Fatalf("time must be positive: %v", got)
	}
}

func TestIterTimeBadBatchPanics(t *testing.T) {
	c := New(Constant(1), CostModel{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.IterTime(nil, 0, 0)
}

func TestIterTimeDynamicSchedule(t *testing.T) {
	c := New(Steps(0, 24, 100, 6), CostModel{PerSample: 0.001}, 1)
	early := c.IterTime(nil, 240, 50)
	late := c.IterTime(nil, 240, 150)
	if math.Abs(late/early-4) > 1e-9 {
		t.Fatalf("capacity drop not reflected: %v vs %v", early, late)
	}
}

func TestJitterPreservesTrend(t *testing.T) {
	c := New(Constant(12), CostModel{Overhead: 0.02, PerSample: 0.001, Jitter: 0.05}, 3)
	x, y := c.Profile(stats.NewRNG(c.Seed), []int{16, 32, 64, 128, 256, 512}, 0)
	fit, err := stats.LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := 0.001 / 12
	if math.Abs(fit.Slope-wantSlope)/wantSlope > 0.3 {
		t.Fatalf("regression slope %v too far from %v", fit.Slope, wantSlope)
	}
}

func TestProfileShapes(t *testing.T) {
	c := New(Constant(2), CostModel{PerSample: 0.01}, 1)
	x, y := c.Profile(nil, []int{8, 16}, 0)
	if len(x) != 2 || len(y) != 2 || x[1] != 16 {
		t.Fatalf("profile %v %v", x, y)
	}
}

func TestIterTimePositiveProperty(t *testing.T) {
	f := func(seed uint64, batch uint8) bool {
		c := New(Constant(float64(1+seed%32)), CostModel{Overhead: 0.01, PerSample: 0.001, Jitter: 0.2}, seed)
		return c.IterTime(stats.NewRNG(seed), int(batch)+1, 0) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleBoundaries pins the exact semantics at step edges: a step
// takes effect at its own time (closed on the left), and the value before
// the first step is the first value.
func TestScheduleBoundaries(t *testing.T) {
	s := Steps(1, 10, 2, 0, 3, 20)
	cases := []struct{ t, want float64 }{
		{0, 10}, // before the first step: first value extends backwards
		{0.999, 10},
		{1, 10},
		{1.999, 10},
		{2, 0}, // zero-capacity window opens exactly at its step time
		{2.999, 0},
		{3, 20},   // and closes exactly at the next
		{100, 20}, // constant after the last step
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestIterTimeZeroCapacityWindow drives IterTime through a schedule that
// drops to zero mid-run: inside the window the 0.01-unit floor applies (a
// stressed worker crawls, it never divides by zero or goes negative), and
// capacity recovers to the schedule on the other side.
func TestIterTimeZeroCapacityWindow(t *testing.T) {
	c := New(Steps(0, 12, 10, 0, 20, 12), CostModel{Overhead: 0.05, PerSample: 0.5}, 1)
	before := c.IterTime(nil, 8, 5)
	inside := c.IterTime(nil, 8, 15)
	after := c.IterTime(nil, 8, 25)
	if before != after {
		t.Fatalf("capacity did not recover: %v vs %v", before, after)
	}
	wantInside := 0.05 + 0.5*8/0.01
	if inside != wantInside {
		t.Fatalf("zero-capacity IterTime %v, want floored %v", inside, wantInside)
	}
	if inside <= before {
		t.Fatal("zero-capacity window must be slower than nominal capacity")
	}
	// The boundaries belong to the new value on the left edge.
	if got := c.IterTime(nil, 8, 10); got != wantInside {
		t.Fatalf("IterTime at window-open boundary %v, want %v", got, wantInside)
	}
	if got := c.IterTime(nil, 8, 20); got != before {
		t.Fatalf("IterTime at window-close boundary %v, want %v", got, before)
	}
}

// TestSingleTickSchedule exercises a window so short only an exact
// boundary hit sees it — a regression guard for schedule scans that
// accumulate or interpolate instead of selecting the active step.
func TestSingleTickSchedule(t *testing.T) {
	s := Steps(0, 5, 10, 50, 10.001, 5)
	if got := s.At(10); got != 50 {
		t.Fatalf("At(10) = %v, want the single-tick value 50", got)
	}
	if got := s.At(10.0005); got != 50 {
		t.Fatalf("At(10.0005) = %v, want 50", got)
	}
	if got := s.At(10.001); got != 5 {
		t.Fatalf("At(10.001) = %v, want 5", got)
	}
}
