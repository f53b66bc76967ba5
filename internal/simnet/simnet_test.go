package simnet

import (
	"testing"

	"dlion/internal/simcompute"
)

func TestUniformMesh(t *testing.T) {
	nw := Uniform(4, simcompute.Constant(100), 0.01)
	if nw.Size() != 4 {
		t.Fatalf("size %d", nw.Size())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			bw, err := nw.BandwidthAt(i, j, 0)
			if err != nil || bw != 100 {
				t.Fatalf("bw(%d,%d) = %v, %v", i, j, bw, err)
			}
		}
	}
}

func TestMissingLink(t *testing.T) {
	nw := New(3)
	if _, err := nw.Link(0, 1); err == nil {
		t.Fatal("missing link must error")
	}
	if _, err := nw.BandwidthAt(0, 5, 0); err == nil {
		t.Fatal("out of range must error")
	}
}

func TestPerWorkerEgress(t *testing.T) {
	scheds := []simcompute.Schedule{
		simcompute.Constant(50), simcompute.Constant(20),
	}
	nw := PerWorkerEgress(scheds, 0)
	bw01, _ := nw.BandwidthAt(0, 1, 0)
	bw10, _ := nw.BandwidthAt(1, 0, 0)
	if bw01 != 50 || bw10 != 20 {
		t.Fatalf("egress bw %v/%v", bw01, bw10)
	}
}

func TestFromMatrixAsymmetric(t *testing.T) {
	m := [][]float64{
		{0, 190, 181},
		{187, 0, 91},
		{171, 92, 0},
	}
	nw := FromMatrix(m, 0.05)
	bw, _ := nw.BandwidthAt(2, 1, 0)
	if bw != 92 {
		t.Fatalf("bw(2,1) = %v", bw)
	}
	bw, _ = nw.BandwidthAt(1, 2, 0)
	if bw != 91 {
		t.Fatalf("bw(1,2) = %v", bw)
	}
}

func TestFromMatrixRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromMatrix([][]float64{{0, 1}, {1}}, 0)
}

func TestSelfLinkPanics(t *testing.T) {
	nw := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	nw.SetLink(1, 1, Link{})
}

// TestBandwidthAtReportsDeadWindow: the monitor reports the raw schedule,
// zero inside a dead window, so budgets see the dead link (and the
// simulator drops its traffic), and the schedule's value on either side.
func TestBandwidthAtReportsDeadWindow(t *testing.T) {
	nw := Uniform(2, simcompute.Steps(0, 100, 10, 0, 20, 100), 0.002)
	for _, c := range []struct{ t, want float64 }{{5, 100}, {10, 0}, {15, 0}, {20, 100}} {
		if bw, err := nw.BandwidthAt(0, 1, c.t); err != nil || bw != c.want {
			t.Fatalf("BandwidthAt(%v) = %v,%v, want %v,nil", c.t, bw, err, c.want)
		}
	}
}

// TestScheduleWraparoundBehavior documents that schedules do NOT wrap:
// after the last step the final value holds forever, so periodic capacity
// patterns must be authored explicitly over the experiment horizon.
func TestScheduleWraparoundBehavior(t *testing.T) {
	s := simcompute.Steps(0, 100, 30, 10)
	for _, tt := range []float64{30, 60, 1e6, 1e12} {
		if got := s.At(tt); got != 10 {
			t.Fatalf("At(%v) = %v; schedules must hold the last value, not wrap", tt, got)
		}
	}
}

func TestHierarchicalTopology(t *testing.T) {
	// 2 clouds of 3 and 2 workers: ids 0-2 in cloud A, 3-4 in cloud B.
	nw := Hierarchical([]Cloud{
		{Workers: 3, LAN: simcompute.Constant(1000), LANRTT: 0.0002},
		{Workers: 2, LAN: simcompute.Constant(500), LANRTT: 0.0004},
	}, simcompute.Constant(100), 0.03)
	if nw.Size() != 5 {
		t.Fatalf("size %d, want 5", nw.Size())
	}
	cloudOf := func(i int) int {
		if i < 3 {
			return 0
		}
		return 1
	}
	wantBW := map[[2]int]float64{{0, 0}: 1000, {1, 1}: 500}
	wantRTT := map[[2]int]float64{{0, 0}: 0.0002, {1, 1}: 0.0004}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			l, err := nw.Link(i, j)
			if err != nil {
				t.Fatalf("link %d->%d: %v", i, j, err)
			}
			tier := [2]int{cloudOf(i), cloudOf(j)}
			bw, rtt := 100.0, 0.03 // WAN defaults
			if w, ok := wantBW[tier]; ok {
				bw, rtt = w, wantRTT[tier]
			}
			if got := l.Bandwidth.At(0); got != bw {
				t.Fatalf("bw %d->%d = %v, want %v", i, j, got, bw)
			}
			if l.RTT != rtt {
				t.Fatalf("rtt %d->%d = %v, want %v", i, j, l.RTT, rtt)
			}
		}
	}
}

func TestHierarchicalSharesLinkObjects(t *testing.T) {
	nw := HierarchicalUniform(2, 3, 1000, 100, 0.0002, 0.03)
	lan01, _ := nw.Link(0, 1)
	lan12, _ := nw.Link(1, 2)
	if lan01 != lan12 {
		t.Fatal("intra-cloud links must share one Link object")
	}
	wan03, _ := nw.Link(0, 3)
	wan41, _ := nw.Link(4, 1)
	if wan03 != wan41 {
		t.Fatal("WAN links must share one Link object")
	}
	if lan01 == wan03 {
		t.Fatal("LAN and WAN tiers must be distinct links")
	}
	// Second cloud's LAN is a distinct object from the first cloud's.
	lan34, _ := nw.Link(3, 4)
	if lan34 == lan01 {
		t.Fatal("each cloud owns its own LAN link object")
	}
}

func TestHierarchicalPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("empty cloud", func() {
		Hierarchical([]Cloud{{Workers: 0}}, simcompute.Constant(1), 0)
	})
	assertPanics("no clouds", func() {
		HierarchicalUniform(0, 4, 1, 1, 0, 0)
	})
}
