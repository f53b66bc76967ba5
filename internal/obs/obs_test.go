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
	o.AddSent(ClassGradient, 100)
	o.AddRecv(ClassWeights, 100)
	o.IncLivenessExpiry()
	o.IncSyncBlock()
	if o.PhaseSeconds(PhaseCompute) != 0 {
		t.Fatal("nil worker obs must read 0")
	}
	w := o.Snapshot(3)
	if w.ID != 3 || w.Phases["compute"] != 0 {
		t.Fatalf("nil snapshot: %+v", w)
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

func TestRegistryAttach(t *testing.T) {
	r := NewRegistry()
	c := &Counter{}
	c.Add(7)
	r.AttachFunc("ext.count", c.Load)
	if snap := r.Snapshot(); snap["ext.count"] != 7 {
		t.Fatalf("attached metric missing from snapshot: %v", snap)
	}
	c.Inc()
	if r.Snapshot()["ext.count"] != 8 {
		t.Fatal("attached reader must stay live")
	}
	// nil-safety: no panics, no effect
	var nilReg *Registry
	nilReg.AttachFunc("x", c.Load)
	r.AttachFunc("nil", nil)
	if _, ok := r.Snapshot()["nil"]; ok {
		t.Fatal("nil readers must not be attached")
	}
}

func TestWorkerObsAccumulates(t *testing.T) {
	o := NewWorkerObs()
	o.AddPhase(PhaseCompute, 1.5)
	o.AddPhase(PhaseCompute, 0.5)
	o.AddPhase(PhaseRecvWait, 0.25)
	o.AddPhase(PhaseCompute, -1) // dropped
	o.AddSent(ClassGradient, 100)
	o.AddSent(ClassGradient, 50)
	o.AddSent(ClassControl, 17)
	o.AddRecv(ClassWeights, 1000)
	o.IncLivenessExpiry()
	o.IncSyncBlock()
	o.IncSyncBlock()

	if got := o.PhaseSeconds(PhaseCompute); got < 1.999 || got > 2.001 {
		t.Fatalf("compute = %v, want 2", got)
	}
	w := o.Snapshot(1)
	if w.Phases["recv_wait"] < 0.249 || w.Phases["recv_wait"] > 0.251 {
		t.Fatalf("recv_wait = %v", w.Phases["recv_wait"])
	}
	if w.SentBytes["gradient"] != 150 || w.SentMsgs["gradient"] != 2 {
		t.Fatalf("gradient sent: %d bytes / %d msgs", w.SentBytes["gradient"], w.SentMsgs["gradient"])
	}
	if w.SentBytes["control"] != 17 || w.RecvBytes["weights"] != 1000 {
		t.Fatalf("class accounting wrong: %+v", w)
	}
	if w.LivenessExpiries != 1 || w.SyncBlocks != 2 {
		t.Fatalf("expiries %d blocks %d", w.LivenessExpiries, w.SyncBlocks)
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
				o.AddSent(ClassGradient, 10)
			}
		}()
	}
	wg.Wait()
	if got := o.PhaseSeconds(PhaseSend); got < 7.99 || got > 8.01 {
		t.Fatalf("send = %v, want 8", got)
	}
	if got := o.Snapshot(0).SentBytes["gradient"]; got != 80000 {
		t.Fatalf("sent = %d, want 80000", got)
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

// TestMembershipObs pins the elastic-membership sink: roster/epoch gauges,
// the degraded-iteration counter, join latency (snapshot field plus the
// optional registry histogram), and nil-sink safety throughout.
func TestMembershipObs(t *testing.T) {
	o := NewWorkerObs()
	reg := NewRegistry()
	o.SetJoinHistogram(reg.Histogram("membership.join_latency"))

	o.SetMembership(5, 2)
	o.IncDegradedIter()
	o.IncDegradedIter()
	o.IncMsgRejected()
	o.ObserveJoin(1.5)

	w := o.Snapshot(3)
	if w.RosterSize != 5 || w.Epoch != 2 {
		t.Fatalf("roster/epoch %d/%d, want 5/2", w.RosterSize, w.Epoch)
	}
	if w.DegradedIters != 2 || w.MsgsRejected != 1 {
		t.Fatalf("degraded iters %d, rejected messages %d, want 2 and 1", w.DegradedIters, w.MsgsRejected)
	}
	if w.JoinLatencyS < 1.4 || w.JoinLatencyS > 1.6 {
		t.Fatalf("join latency %g, want ~1.5", w.JoinLatencyS)
	}
	h := reg.HistogramSummaries()["membership.join_latency"]
	if h.Count != 1 || h.Max < 1.4 {
		t.Fatalf("histogram summary %+v, want one ~1.5s observation", h)
	}

	// negative latency is clock skew, not data
	o.ObserveJoin(-1)
	if got := o.Snapshot(3).JoinLatencyS; got < 1.4 {
		t.Fatalf("negative latency overwrote the record: %g", got)
	}

	// every method must be a no-op on a nil sink
	var nilObs *WorkerObs
	nilObs.SetMembership(1, 1)
	nilObs.IncDegradedIter()
	nilObs.IncMsgRejected()
	nilObs.SetJoinHistogram(nil)
	nilObs.ObserveJoin(1)
	if w := nilObs.Snapshot(0); w.RosterSize != 0 || w.DegradedIters != 0 {
		t.Fatalf("nil sink snapshot %+v, want zeroed", w)
	}
}
