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

func TestResumeRejoinPullsWeights(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	env.eng.Run(12)
	ws[1].Resume(0) // rejoin: pull a snapshot from worker 0
	env.eng.Run(20)
	s := ws[1].Stats()
	if s.DKTMerges == 0 {
		t.Fatal("rejoin should have adopted a weight snapshot")
	}
	if ws[0].Stats().DKTWeightsSent == 0 {
		t.Fatal("sync peer never served the rejoin request")
	}
	// the snapshot is adopted outright: replicas match where the rejoiner
	// has not yet trained past it — check a weight actually equals peer's
	// (both trained after, so just assert the transfer happened above)
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
	ws[1].Resume(-1)
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
	// without liveness the survivor would freeze one iteration after the
	// crash; with it, the dead peer expires after 5s and training resumes
	if ws[0].Iter() < 30 {
		t.Fatalf("survivor stuck at %d iterations after peer death", ws[0].Iter())
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

func TestLivePeersTracksSilence(t *testing.T) {
	cfg := asyncConfig()
	cfg.LivenessTimeout = 5
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(4)
	if got := len(ws[0].LivePeers()); got != 2 {
		t.Fatalf("all peers chattering, live = %d", got)
	}
	ws[2].Stop()
	env.eng.Run(20)
	live := ws[0].LivePeers()
	if len(live) != 1 || live[0] != 1 {
		t.Fatalf("after worker 2 died, live peers = %v", live)
	}
}

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
}
