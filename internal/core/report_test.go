package core

import (
	"testing"

	"dlion/internal/obs"
	"dlion/internal/wire"
)

// checkReport holds w.Report() to the worker's own state: every count
// from Stats, per class and in total, the roster, the job label and the
// iteration.
func checkReport(t *testing.T, w *Worker) obs.WorkerReport {
	t.Helper()
	r, s := w.Report(), w.Stats()
	if r.ID != w.ID || r.Iters != w.Iter() || r.Job != w.cfg.Job {
		t.Fatalf("worker %d report header id %d iters %d job %q, want %d %d %q",
			w.ID, r.ID, r.Iters, r.Job, w.ID, w.Iter(), w.cfg.Job)
	}
	if r.RosterSize != int64(len(w.Members())) || r.Epoch != w.Epoch() {
		t.Fatalf("worker %d report roster %d epoch %d, want %d %d",
			w.ID, r.RosterSize, r.Epoch, len(w.Members()), w.Epoch())
	}
	if r.LivenessExpiries != s.LivenessExpiries || r.SyncBlocks != s.SyncBlocks ||
		r.MsgsRejected != s.MsgsRejected || r.QuantBytesSaved != s.QuantBytesSaved ||
		r.DegradedIters != s.DegradedIters || r.JoinLatencyS != s.JoinLatency {
		t.Fatalf("worker %d report %+v disagrees with stats %+v", w.ID, r, s)
	}
	var sentMsgs, sentBytes, recvMsgs int64
	for c := obs.MsgClass(0); c < obs.NumClasses; c++ {
		n := c.String()
		if r.SentMsgs[n] != s.SentMsgs[c] || r.SentBytes[n] != s.SentBytes[c] ||
			r.RecvMsgs[n] != s.RecvMsgs[c] || r.RecvBytes[n] != s.RecvBytes[c] {
			t.Fatalf("worker %d class %s: report %d/%d sent %d/%d recvd, stats %d/%d and %d/%d",
				w.ID, n, r.SentMsgs[n], r.SentBytes[n], r.RecvMsgs[n], r.RecvBytes[n],
				s.SentMsgs[c], s.SentBytes[c], s.RecvMsgs[c], s.RecvBytes[c])
		}
		sentMsgs += s.SentMsgs[c]
		sentBytes += s.SentBytes[c]
		recvMsgs += s.RecvMsgs[c]
	}
	if sentMsgs != s.MsgsSent || sentBytes != s.BytesSent || recvMsgs != s.MsgsRecvd {
		t.Fatalf("worker %d classes sum to %d msgs %d bytes sent, %d recvd; totals %d %d %d",
			w.ID, sentMsgs, sentBytes, recvMsgs, s.MsgsSent, s.BytesSent, s.MsgsRecvd)
	}
	return r
}

// TestReportCarriesJoin: a joiner's report holds its admission latency
// (HELLO out and WELCOME back over links of 0.5 s), the roster and epoch
// it adopted, and the job label; the WELCOME is its one received control
// message. Only the worker with a phase clock reports phases.
func TestReportCarriesJoin(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	env.delay = 0.5
	founder := asyncConfig()
	founder.Job = "job-7"
	founder.Membership.InitialMembers = []int{0, 1}
	joiner := founder
	joiner.Membership.InitialMembers = nil
	joiner.Membership.Join = true
	joiner.Membership.Sponsor = 0
	ws := buildClusterCfgs(t, []Config{founder, founder, joiner}, env)
	ws[0].SetObs(obs.NewWorkerObs())
	ws[0].Start()
	ws[1].Start()
	env.eng.At(5, ws[2].Start)
	env.eng.Run(30)

	f, _, r := checkReport(t, ws[0]), checkReport(t, ws[1]), checkReport(t, ws[2])
	if r.JoinLatencyS != 1 || r.RosterSize != 3 || r.Epoch != 1 || r.Job != "job-7" {
		t.Fatalf("joiner report: join latency %g roster %d epoch %d job %q, want 1 3 1 job-7",
			r.JoinLatencyS, r.RosterSize, r.Epoch, r.Job)
	}
	if r.RecvMsgs["control"] != 1 || r.RecvBytes["control"] == 0 || r.SentMsgs["gradient"] == 0 {
		t.Fatalf("joiner traffic: recvd %v sent %v, want the WELCOME and gradients", r.RecvMsgs, r.SentMsgs)
	}
	if f.JoinLatencyS != 0 || f.Phases["compute"] <= 0 {
		t.Fatalf("founder report: join latency %g compute %g, want 0 and > 0", f.JoinLatencyS, f.Phases["compute"])
	}
	if r.Phases["compute"] != 0 {
		t.Fatalf("a worker without a phase clock reports compute %g", r.Phases["compute"])
	}
}

// TestReportCarriesFailures: the failure detector's expiries, the sync
// blocks, the iterations below the quorum floor and a message from outside
// the address space all reach the survivor's report.
func TestReportCarriesFailures(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.LivenessTimeout = 5
	cfg.Membership.QuorumFloor = 3
	env := newFakeEnv(3, []float64{1, 1, 1})
	env.delay = 0.1
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	ws[2].Stop()
	env.eng.Run(60)
	ws[0].HandleMessage(&wire.Message{Type: wire.TypeLossReport, From: 99})

	r := checkReport(t, ws[0])
	if r.LivenessExpiries != 2 || r.SyncBlocks == 0 || r.DegradedIters == 0 || r.MsgsRejected != 1 {
		t.Fatalf("survivor report: expiries %d blocks %d degraded %d rejected %d, want 2, > 0, > 0, 1",
			r.LivenessExpiries, r.SyncBlocks, r.DegradedIters, r.MsgsRejected)
	}
	if r.RosterSize != 1 || r.Epoch != 2 {
		t.Fatalf("survivor roster %d epoch %d, want 1 and 2", r.RosterSize, r.Epoch)
	}
}
