package fault

import "testing"

func TestWindowContains(t *testing.T) {
	cases := []struct {
		w    Window
		t    float64
		want bool
	}{
		{Window{10, 20}, 9.99, false},
		{Window{10, 20}, 10, true},
		{Window{10, 20}, 19.99, true},
		{Window{10, 20}, 20, false},
		{Window{10, 0}, 1e9, true}, // open-ended
		{Window{10, 0}, 5, false},
		{Window{0, 0}, 0, true}, // whole run
	}
	for _, c := range cases {
		if got := c.w.Contains(c.t); got != c.want {
			t.Errorf("window %+v contains(%v) = %v, want %v", c.w, c.t, got, c.want)
		}
	}
}

func TestNilScheduleDeliversEverything(t *testing.T) {
	in := NewInjector(nil)
	for i := 0; i < 100; i++ {
		v := in.Message(0, 1, float64(i))
		if !v.Deliver || v.ExtraDelay != 0 {
			t.Fatalf("nil schedule produced %+v", v)
		}
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("counters moved: %+v", s)
	}
}

func TestPartitionWindowAndWildcard(t *testing.T) {
	in := NewInjector(&Schedule{Partitions: []Partition{
		{From: 0, To: 1, Window: Window{Start: 10, End: 20}},
		{From: 2, To: Any, Window: Window{Start: 0, End: 5}},
	}})
	if v := in.Message(0, 1, 15); v.Deliver || !v.Partitioned {
		t.Fatalf("0->1 at 15 should be partitioned: %+v", v)
	}
	if v := in.Message(0, 1, 25); !v.Deliver {
		t.Fatal("0->1 at 25 should be healed")
	}
	if v := in.Message(1, 0, 15); !v.Deliver {
		t.Fatal("unidirectional partition must not sever the reverse link")
	}
	if v := in.Message(2, 7, 1); v.Deliver {
		t.Fatal("wildcard destination should match any peer")
	}
	if s := in.Stats(); s.Partitioned != 2 {
		t.Fatalf("partition counter %d, want 2", s.Partitioned)
	}
}

func TestBidirectionalPartition(t *testing.T) {
	in := NewInjector(&Schedule{Partitions: []Partition{
		{From: 0, To: 1, Bidirectional: true, Window: Window{Start: 0, End: 10}},
	}})
	if v := in.Message(1, 0, 5); v.Deliver {
		t.Fatal("bidirectional partition must sever the reverse link too")
	}
}

func TestLossRateSampling(t *testing.T) {
	in := NewInjector(&Schedule{Seed: 7, Loss: []Loss{
		{From: Any, To: Any, Rate: 0.5, Window: Window{}},
	}})
	dropped := 0
	const total = 2000
	for i := 0; i < total; i++ {
		if v := in.Message(0, 1, float64(i)); !v.Deliver {
			dropped++
		}
	}
	if dropped < total/3 || dropped > 2*total/3 {
		t.Fatalf("50%% loss dropped %d of %d", dropped, total)
	}
	if s := in.Stats(); s.Lost != int64(dropped) {
		t.Fatalf("loss counter %d, want %d", s.Lost, dropped)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(&Schedule{Seed: 42, Loss: []Loss{
			{From: Any, To: Any, Rate: 0.3, Window: Window{}},
		}})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		va, vb := a.Message(0, 1, float64(i)), b.Message(0, 1, float64(i))
		if va != vb {
			t.Fatalf("verdicts diverge at %d: %+v vs %+v", i, va, vb)
		}
	}
}

func TestCorruptionAndDelay(t *testing.T) {
	in := NewInjector(&Schedule{
		Corruption: []Corrupt{{From: 0, To: 1, Rate: 1, Window: Window{Start: 0, End: 10}}},
		Delays:     []Delay{{From: Any, To: Any, Extra: 0.5, Window: Window{Start: 0, End: 10}}},
	})
	if v := in.Message(0, 1, 5); v.Deliver || !v.Corrupted {
		t.Fatalf("rate-1 corruption should always fire: %+v", v)
	}
	if v := in.Message(1, 0, 5); !v.Deliver || v.ExtraDelay != 0.5 {
		t.Fatalf("delay rule should add 0.5s: %+v", v)
	}
	s := in.Stats()
	if s.Corrupted != 1 || s.Delayed != 1 {
		t.Fatalf("counters %+v", s)
	}
}

func TestValidate(t *testing.T) {
	good := &Schedule{
		Crashes:          []Crash{{Worker: 1, At: 10, RestartAfter: 5}},
		Partitions:       []Partition{{From: 0, To: Any, Window: Window{Start: 1, End: 2}}},
		Loss:             []Loss{{From: Any, To: Any, Rate: 0.1}},
		Leaves:           []Leave{{Worker: 2, At: 20}, {Worker: 3, AfterIters: 6}},
		CheckpointPeriod: 5,
	}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if err := (*Schedule)(nil).Validate(4); err != nil {
		t.Fatalf("nil schedule rejected: %v", err)
	}
	bad := []*Schedule{
		{Crashes: []Crash{{Worker: 9, At: 1}}},
		{Crashes: []Crash{{Worker: 0, At: -1}}},
		{Partitions: []Partition{{From: -2, To: 0}}},
		{Partitions: []Partition{{From: 0, To: 1, Window: Window{Start: 5, End: 5}}}},
		{Loss: []Loss{{From: 0, To: 1, Rate: 1.5}}},
		{Delays: []Delay{{From: 0, To: 1, Extra: -1}}},
		{Corruption: []Corrupt{{From: 0, To: 1, Rate: -0.1}}},
		{CheckpointPeriod: -1},
		{Leaves: []Leave{{Worker: 1, AfterIters: -3}}},
		{Leaves: []Leave{{Worker: 1, At: 5, AfterIters: 3}}}, // ambiguous trigger
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
	// an unknown cluster size skips range checks but keeps the rest
	if err := (&Schedule{Crashes: []Crash{{Worker: 9, At: 1}}}).Validate(0); err != nil {
		t.Fatalf("n=0 should skip range checks: %v", err)
	}
	if err := (&Schedule{Loss: []Loss{{From: 0, To: 1, Rate: 2}}}).Validate(0); err == nil {
		t.Fatal("n=0 must still validate rates")
	}
}
