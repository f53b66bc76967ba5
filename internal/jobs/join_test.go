package jobs

import (
	"context"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/systems"
)

// TestExternalWorkerJoinsAJob: a worker outside the controller's process —
// a ClientTransport on the job's namespace of the controller's served
// broker, as dlion-worker -job -join builds — takes a job's free slot
// through worker 0. Its lookup of worker 0 finds the empty register value,
// which names the broker; worker 0's lookup of it finds its own server.
// Admission completes: the joiner goes active with a roster of all three.
func TestExternalWorkerJoinsAJob(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := NewManager(Config{Broker: b, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	job, err := m.Submit(Spec{System: "dlion", Workers: 2, Slots: 3, MaxIters: maxSpecIters, Scale: 0.001, LBS: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateTraining, 10*time.Second)

	spec := job.Spec
	sys, err := systems.ForJob(spec.System, spec.Quant, job.ID, spec.MaxIters)
	if err != nil {
		t.Fatal(err)
	}
	sys.Batch.InitialLBS = spec.LBS
	sys.Membership = core.MembershipConfig{Join: true, Sponsor: 0, JoinTimeout: 60, JoinRetry: 0.2}
	w := systems.NewWorkload(spec.Scale, spec.Seed)
	shards, _, err := w.Shards(spec.Slots)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := realtime.NewClientTransportNS(srv.Addr(), 2, queue.JobNamespace(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	node, err := realtime.NewNode(realtime.Config{ID: 2, N: spec.Slots, System: sys, Spec: w.Spec,
		Shard: shards[2], Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- node.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-ran; err != nil {
			t.Error(err)
		}
	}()

	var state core.MemberState
	var roster []int
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		ictx, icancel := context.WithTimeout(ctx, 5*time.Second)
		err := node.Inspect(ictx, func(w *core.Worker) { state, roster = w.State(), w.Members() })
		icancel()
		if err != nil {
			t.Fatal(err)
		}
		if state == core.StateActive && len(roster) == 3 {
			m.Close() // while the joiner still serves: the founders' last frames reach it
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the external worker is %v with roster %v, want active with 3 members", state, roster)
		}
	}
}
