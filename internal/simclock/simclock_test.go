package simclock

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var when float64
	e.At(10, func() {
		e.After(5, func() { when = e.Now() })
	})
	e.RunAll()
	if when != 15 {
		t.Fatalf("After fired at %v, want 15", when)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	var order []string
	e.At(10, func() {
		e.At(3, func() { order = append(order, "past") })
		e.At(11, func() { order = append(order, "future") })
	})
	e.RunAll()
	if len(order) != 2 || order[0] != "past" || order[1] != "future" {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 11 {
		t.Fatalf("clock %v", e.Now())
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := New()
	ran := false
	e.After(-5, func() { ran = true })
	e.RunAll()
	if !ran || e.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run(5)
	if len(fired) != 3 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock should park at horizon, got %v", e.Now())
	}
	if len(e.q) != 1 {
		t.Fatalf("pending %d", len(e.q))
	}
	e.Run(20)
	if len(fired) != 4 {
		t.Fatalf("resume failed: fired=%v", fired)
	}
	// Uniform parking: the queue drained at t=10, but the simulated
	// interval ran to 20, so the clock parks at the horizon — the same
	// place it parks when stopped mid-queue.
	if e.Now() != 20 {
		t.Fatalf("clock should park at horizon after drain, got %v", e.Now())
	}
}

// TestRunParksAtHorizonUniformly is the regression test for the drained-
// queue parking fix: both stop paths (queue drained early, next event past
// the horizon) must leave the clock at the horizon, and a horizon in the
// past must never move the clock backwards.
func TestRunParksAtHorizonUniformly(t *testing.T) {
	// Drain path: single event at 3, horizon 10.
	e := New()
	e.At(3, func() {})
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("drained queue: clock at %v, want horizon 10", e.Now())
	}
	// Mid-queue path: next event beyond the horizon.
	e2 := New()
	e2.At(3, func() {})
	e2.At(50, func() {})
	e2.Run(10)
	if e2.Now() != 10 || len(e2.q) != 1 {
		t.Fatalf("mid-queue stop: now=%v pending=%d", e2.Now(), len(e2.q))
	}
	// Empty queue from the start.
	e3 := New()
	e3.Run(7)
	if e3.Now() != 7 {
		t.Fatalf("empty queue: clock at %v, want 7", e3.Now())
	}
	// Past horizon: clock never moves backwards.
	e3.Run(2)
	if e3.Now() != 7 {
		t.Fatalf("past horizon moved clock to %v", e3.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	count := 0
	e.Every(2, func() { count++ })
	e.Run(9)
	if count != 4 {
		t.Fatalf("count %d", count)
	}
	// the t=10 tick stays queued past the horizon; the clock parks at the
	// horizon, not at the last tick
	if e.Now() != 9 {
		t.Fatalf("now %v", e.Now())
	}
}

// TestEveryTickExactlyAtHorizon: Run executes events at t <= horizon
// inclusively, so a tick landing exactly on the horizon fires and its
// successor (past the horizon) stays queued.
func TestEveryTickExactlyAtHorizon(t *testing.T) {
	e := New()
	var at []float64
	e.Every(5, func() { at = append(at, e.Now()) })
	e.Run(10)
	if len(at) != 2 || at[0] != 5 || at[1] != 10 {
		t.Fatalf("ticks %v, want [5 10]", at)
	}
	if len(e.q) != 1 {
		t.Fatalf("pending %d, want the t=15 tick", len(e.q))
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %v, want 10", e.Now())
	}
}

// TestAtExactHorizonBoundary: an event scheduled exactly at the horizon is
// inside the simulated interval.
func TestAtExactHorizonBoundary(t *testing.T) {
	e := New()
	ran := false
	e.At(10, func() { ran = true })
	e.Run(10)
	if !ran {
		t.Fatal("event at the horizon boundary did not fire")
	}
}

func TestEveryHorizonBounded(t *testing.T) {
	e := New()
	count := 0
	e.Every(1, func() { count++ })
	e.Run(10.5)
	if count != 10 {
		t.Fatalf("count %d, want 10", count)
	}
}

func TestEveryBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New().Every(0, func() {})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty engine must be false")
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	f := func(times []float64) bool {
		e := New()
		last := -1.0
		ok := true
		for _, at := range times {
			if at < 0 {
				at = -at
			}
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
