package obs

import (
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Set(3)
	if g.Load() != 3 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d, want 3 max 7", g.Load(), g.Max())
	}
}

func TestNilSinksAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Load() != 0 {
		t.Fatal("nil counter must load 0")
	}
	var g *Gauge
	g.Set(9)
	if g.Load() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge must load 0")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var o *WorkerObs
	o.AddPhase(PhaseCompute, 1)
	if o.PhaseSeconds(PhaseCompute) != 0 {
		t.Fatal("nil worker obs must read 0")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3) // same handle by name
	r.Gauge("depth").Set(10)
	r.Gauge("depth").Set(4)
	snap := r.Snapshot()
	if snap["a"] != 5 {
		t.Fatalf("a = %d, want 5", snap["a"])
	}
	if snap["depth"] != 4 || snap["depth.max"] != 10 {
		t.Fatalf("depth = %d max %d, want 4 max 10", snap["depth"], snap["depth.max"])
	}
}

func TestWorkerObsAccumulates(t *testing.T) {
	o := NewWorkerObs()
	o.AddPhase(PhaseCompute, 1.5)
	o.AddPhase(PhaseCompute, 0.5)
	o.AddPhase(PhaseRecvWait, 0.25)
	o.AddPhase(PhaseCompute, -1) // dropped
	o.AddPhase(NumPhases, 1)     // dropped

	if got := o.PhaseSeconds(PhaseCompute); got < 1.999 || got > 2.001 {
		t.Fatalf("compute = %v, want 2", got)
	}
	if got := o.PhaseSeconds(PhaseRecvWait); got < 0.249 || got > 0.251 {
		t.Fatalf("recv_wait = %v, want 0.25", got)
	}
	if o.PhaseSeconds(PhaseApply) != 0 || o.PhaseSeconds(NumPhases) != 0 {
		t.Fatal("uncharged phases must read 0")
	}
}

func TestWorkerObsConcurrent(t *testing.T) {
	o := NewWorkerObs()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				o.AddPhase(PhaseSend, 0.001)
			}
		}()
	}
	wg.Wait()
	if got := o.PhaseSeconds(PhaseSend); got < 7.99 || got > 8.01 {
		t.Fatalf("send = %v, want 8", got)
	}
}

func TestPhaseAndClassNames(t *testing.T) {
	want := []string{"compute", "serialize", "send", "recv_wait", "apply"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Fatalf("phase %d = %q, want %q", p, p.String(), want[p])
		}
	}
	if Phase(200).String() != "unknown" || MsgClass(200).String() != "unknown" {
		t.Fatal("out-of-range names must be unknown")
	}
}
