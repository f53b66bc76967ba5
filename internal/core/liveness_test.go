package core

import (
	"testing"

	"dlion/internal/wire"
)

// Liveness, crash/restart, and rejoin behavior of the worker itself,
// exercised over the fake env (the cluster-level chaos tests cover the
// full simulator integration).

func TestStopFreezesWorker(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	frozen := ws[1].Iter()
	env.eng.Run(30)
	if !ws[1].Stopped() {
		t.Fatal("worker should report stopped")
	}
	if ws[1].Iter() != frozen {
		t.Fatalf("stopped worker kept iterating: %d -> %d", frozen, ws[1].Iter())
	}
	if ws[0].Iter() < 25 {
		t.Fatalf("async survivor should keep running: %d", ws[0].Iter())
	}
}

func TestStoppedWorkerIgnoresMessages(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	ws[1].Stop()
	before := ws[1].Stats().DKTMerges
	ws[1].HandleMessage(&wire.Message{Type: wire.TypeDKTRequest, From: 0, To: 1})
	if got := ws[1].Stats().MsgsSent; got != 0 {
		t.Fatalf("stopped worker answered a DKT request (%d msgs)", got)
	}
	if ws[1].Stats().DKTMerges != before {
		t.Fatal("stopped worker mutated state on message")
	}
}

func TestResumeRestartsIteration(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	frozen := ws[1].Iter()
	env.eng.Run(20)
	ws[1].Resume(-1)
	env.eng.Run(40)
	if ws[1].Iter() <= frozen {
		t.Fatalf("resumed worker did not iterate: %d", ws[1].Iter())
	}
	if ws[1].Stopped() {
		t.Fatal("resumed worker still reports stopped")
	}
}

// TestResumeRejoinPullsWeights: a resumed worker re-enters through the
// admission handshake and adopts its sponsor's WELCOME outright — weights
// and iteration, not only a weight transfer.
func TestResumeRejoinPullsWeights(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	var welcome *wire.Message
	env.onSend = func(m *wire.Message) {
		if m.Type == wire.TypeWelcome {
			welcome = m
		}
	}
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	crashed := ws[1].Iter()
	env.eng.Run(12)
	ws[1].Resume(0)
	// The handshake is instantaneous on this env; the rejoiner's first
	// iteration and worker 0's next gradient both land at t = 13.
	env.eng.Run(12.5)
	if welcome == nil || welcome.From != 0 || welcome.To != 1 {
		t.Fatalf("no WELCOME from worker 0 to the rejoiner: %+v", welcome)
	}
	if got := ws[1].Iter(); got != welcome.Iter || got <= crashed {
		t.Fatalf("rejoiner at iteration %d, sponsor's WELCOME %d, crashed at %d", got, welcome.Iter, crashed)
	}
	for _, p := range ws[1].Model().Params() {
		want := welcome.Weights[p.Name].Data
		for i, v := range p.W.Data {
			if v != want[i] {
				t.Fatalf("%s[%d] = %v, sponsor's snapshot %v", p.Name, i, v, want[i])
			}
		}
	}
	if got := ws[1].Members(); !equalInts(got, []int{0, 1}) || ws[1].State() != StateActive {
		t.Fatalf("rejoiner %v with roster %v, want active over [0 1]", ws[1].State(), got)
	}
}

func TestDoubleResumeIsIdempotent(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(5)
	ws[1].Resume(-1) // not stopped: must be a no-op, not a second loop
	env.eng.Run(10)
	// a duplicated iteration loop would show up as roughly double the
	// iteration rate of worker 0
	if ws[1].Iter() > ws[0].Iter()+2 {
		t.Fatalf("Resume on a running worker duplicated its loop: %d vs %d",
			ws[1].Iter(), ws[0].Iter())
	}
}

func TestStaleTimersDieAcrossRestart(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	// crash and immediately resume: the pre-crash completeIteration timer
	// is still queued, and must not run alongside the resumed loop
	ws[1].Stop()
	ws[1].Resume(0)
	env.eng.Run(30)
	if ws[1].Iter() > ws[0].Iter()+3 {
		t.Fatalf("stale pre-crash timer kept firing: %d vs %d",
			ws[1].Iter(), ws[0].Iter())
	}
}

func TestSyncFullUnblocksWhenPeerDies(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.LivenessTimeout = 5
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	env.eng.Run(60)
	// without the detector the survivor would freeze one iteration after
	// the crash; with it, the silent peer leaves the roster after 5 s and
	// training resumes
	if ws[0].Iter() < 30 {
		t.Fatalf("survivor stuck at %d iterations after peer death", ws[0].Iter())
	}
	if got := ws[0].Members(); !equalInts(got, []int{0}) || !hasReason(ws[0].MembershipLog(), "suspect") {
		t.Fatalf("survivor's roster %v, log %+v: want [0] after a suspicion", got, ws[0].MembershipLog())
	}
}

func TestSyncFullStillBlocksWithoutLiveness(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	atCrash := ws[0].Iter()
	ws[1].Stop()
	env.eng.Run(60)
	if ws[0].Iter() > atCrash+1 {
		t.Fatalf("timeout disabled: survivor should block, ran %d -> %d",
			atCrash, ws[0].Iter())
	}
}

// TestSuspectSilentPeerLeavesRoster: a crashed peer leaves every
// survivor's roster after the timeout, with one "suspect" epoch each — and
// only the crashed one does: the survivors, blocked on SyncFull and sending
// each other no gradients, keep each other in with heartbeats.
func TestSuspectSilentPeerLeavesRoster(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.LivenessTimeout = 5
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(4)
	ws[2].Stop()
	env.eng.Run(40)
	for _, i := range []int{0, 1} {
		if got := ws[i].Members(); !equalInts(got, []int{0, 1}) {
			t.Fatalf("worker %d roster %v after worker 2 died, want [0 1]", i, got)
		}
		suspects := 0
		for _, e := range ws[i].MembershipLog() {
			if e.Reason == "suspect" {
				suspects++
			}
		}
		if suspects != 1 {
			t.Fatalf("worker %d logged %d suspicions, want 1: %+v", i, suspects, ws[i].MembershipLog())
		}
	}
	if ws[0].Iter() < 25 || ws[0].Iter() != ws[1].Iter() {
		t.Fatalf("survivors at %d and %d iterations: not training in lockstep", ws[0].Iter(), ws[1].Iter())
	}
}

// TestDKTSkipsDeadBestWorker: the DKT electorate is the roster. A crashed
// worker's unbeatable loss report leaves with it when it is suspected, and
// a report from an id outside the roster never counts.
func TestDKTSkipsDeadBestWorker(t *testing.T) {
	cfg := asyncConfig()
	cfg.LivenessTimeout = 5
	cfg.DKT = DKTConfig{Enabled: true, Period: 5, Lambda: 0.75}
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	// plant a stale, unbeatably good loss report from worker 2, then kill it
	env.eng.Run(3)
	ws[0].HandleMessage(&wire.Message{Type: wire.TypeLossReport, From: 2, To: 0, Loss: 1e-9})
	ws[2].Stop()
	env.eng.Run(40)
	// worker 0 must not be stuck requesting weights from the dead worker 2:
	// its merges should come from worker 1 instead, so some merges landed
	if ws[2].Stats().DKTWeightsSent != 0 {
		t.Fatal("dead worker served DKT")
	}
	if ws[0].Stats().DKTMerges == 0 {
		t.Fatal("worker 0 starved: kept electing the dead peer as best")
	}

	cfg.LivenessTimeout = 0
	cfg.Membership.InitialMembers = []int{0, 1}
	apart := cfg
	apart.Membership.InitialMembers = []int{2}
	env = newFakeEnv(3, []float64{1, 1, 1})
	ws = buildClusterCfgs(t, []Config{cfg, cfg, apart}, env)
	ws[0].Start()
	ws[1].Start()
	env.eng.Run(3)
	ws[0].HandleMessage(&wire.Message{Type: wire.TypeLossReport, From: 2, To: 0, Loss: 1e-9})
	env.eng.Run(20)
	for _, m := range env.sent {
		if m.Type == wire.TypeDKTRequest && m.To == 2 {
			t.Fatalf("worker %d asked id 2, outside its roster, for weights", m.From)
		}
	}
}
