package core

import (
	"testing"

	"dlion/internal/wire"
)

// dktCluster builds a 3-worker async cluster with DKT enabled.
func dktCluster(t *testing.T, period int64, best2worst bool) (*fakeEnv, []*Worker) {
	t.Helper()
	cfg := asyncConfig()
	cfg.DKT = DKTConfig{Enabled: true, Period: period, Lambda: 0.5, Best2Worst: best2worst}
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, cfg, env)
	return env, ws
}

func countMsgs(env *fakeEnv, typ wire.MsgType) int {
	n := 0
	for _, m := range env.sent {
		if m.Type == typ {
			n++
		}
	}
	return n
}

func TestDKTLossReportsBroadcastPeriodically(t *testing.T) {
	env, ws := dktCluster(t, 4, false)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(20)
	// each worker completes ~20 iterations -> ~5 DKT rounds, each
	// broadcasting to 2 peers
	reports := countMsgs(env, wire.TypeLossReport)
	if reports < 3*2*3 {
		t.Fatalf("too few loss reports: %d", reports)
	}
}

func TestDKTElectionTargetsBestLoss(t *testing.T) {
	env, ws := dktCluster(t, 3, false)
	w := ws[1]
	// worker 1 knows: self 0.8, peer 0 has 0.2 (best), peer 2 has 1.5
	w.lossWin = []float64{0.8}
	w.peers[0].loss, w.peers[0].hasLoss = 0.2, true
	w.peers[2].loss, w.peers[2].hasLoss = 1.5, true
	w.decideDKT()
	if len(env.sent) != 1 || env.sent[0].Type != wire.TypeDKTRequest || env.sent[0].To != 0 {
		t.Fatalf("expected one request to worker 0, got %+v", env.sent)
	}
	// if self is best, no request is sent
	env.sent = nil
	w.lossWin = []float64{0.1}
	w.decideDKT()
	if len(env.sent) != 0 {
		t.Fatalf("best worker must not request: %+v", env.sent)
	}
}

// TestDKTElectionTieGoesToLowestID: two peers reporting bit-equal losses
// must elect the same best worker on every run — the lower id.
func TestDKTElectionTieGoesToLowestID(t *testing.T) {
	env, ws := dktCluster(t, 3, false)
	w := ws[0]
	w.lossWin = []float64{0.8}
	for rep := 0; rep < 50; rep++ {
		env.sent = nil
		w.peers[1].loss, w.peers[1].hasLoss = 0.3, true
		w.peers[2].loss, w.peers[2].hasLoss = 0.3, true
		w.decideDKT()
		if len(env.sent) != 1 || env.sent[0].Type != wire.TypeDKTRequest || env.sent[0].To != 1 {
			t.Fatalf("repetition %d: expected one request to worker 1, got %+v", rep, env.sent)
		}
	}
}

func TestDKTEndToEndTransfers(t *testing.T) {
	env, ws := dktCluster(t, 3, false)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(30)
	if countMsgs(env, wire.TypeWeights) == 0 {
		t.Fatal("no weights shipped in 30s of DKT-enabled training")
	}
	var merges int64
	for _, w := range ws {
		merges += w.Stats().DKTMerges
	}
	if merges == 0 {
		t.Fatal("no merges happened")
	}
}

func TestDKTBest2WorstOnlyWorstRequests(t *testing.T) {
	env, ws := dktCluster(t, 3, true)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(40)
	// in Best2worst mode, at most one worker per round sends a request;
	// with 3 workers and ~10 rounds, Best2all would send ~20 requests.
	reqs := countMsgs(env, wire.TypeDKTRequest)
	b2aEnv, b2aWs := dktCluster(t, 3, false)
	for _, w := range b2aWs {
		w.Start()
	}
	b2aEnv.eng.Run(40)
	reqsAll := countMsgs(b2aEnv, wire.TypeDKTRequest)
	if reqs >= reqsAll {
		t.Fatalf("Best2worst sent %d requests, Best2all %d; expected fewer", reqs, reqsAll)
	}
}

func TestDKTMergeMovesTowardBest(t *testing.T) {
	env, ws := dktCluster(t, 2, false)
	// make worker 1 terrible and record its distance to worker 0 weights
	for _, p := range ws[1].Model().Params() {
		for i := range p.W.Data {
			p.W.Data[i] = 0.9
		}
	}
	dist := func() float64 {
		var d float64
		for i, p := range ws[1].Model().Params() {
			q := ws[0].Model().Params()[i]
			for k := range p.W.Data {
				dv := float64(p.W.Data[k] - q.W.Data[k])
				d += dv * dv
			}
		}
		return d
	}
	before := dist()
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(25)
	if ws[1].Stats().DKTMerges == 0 {
		t.Skip("no merge happened in window")
	}
	if after := dist(); after >= before {
		t.Fatalf("merge did not pull worker 1 toward best: %v -> %v", before, after)
	}
}

func TestBudgetFormula(t *testing.T) {
	// budget = bw_bytes * charged iterSec / ((n-1) * sendScale), on both
	// substrates: with the wall time already paid (wait 0) the budget is the
	// same, because it reads what the iteration was charged.
	for _, wallPaid := range []bool{false, true} {
		cfg := asyncConfig()
		cfg.LinkBudget = true
		cfg.MaxIters = 2 // at wait 0 virtual time stands still; the budget ends the run
		env := newFakeEnv(3, []float64{2, 2, 2})
		env.wallPaid = wallPaid
		env.bw = 8 // Mbps -> 1e6 bytes/s
		env.sendScale = 4
		ws := buildCluster(t, cfg, env)
		ws[0].Start()
		env.eng.Run(3)
		want := int(1e6 * 2 / (2 * 4.0))
		got := ws[0].LastBudget(1)
		if got != want {
			t.Fatalf("wallPaid=%v: budget %d, want %d", wallPaid, got, want)
		}
	}
}
