package realtime

import (
	"context"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

// TestRealModeObservability runs an instrumented two-node cluster over the
// in-process broker and checks each worker's Report carries the wall-clock
// phase breakdown and its transfer counts. Runs under -race: the phase
// clocks are written from the event loop and the sender goroutines
// concurrently.
func TestRealModeObservability(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	b.SetMetrics(reg)

	const n = 2
	dc := data.Config{Name: "rt", NumClasses: 3, Train: 240, Test: 60,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 21}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := nn.CipherSpec(1, 8, 8, 3, 5)

	sinks := make([]*obs.WorkerObs, n)
	for i := range sinks {
		sinks[i] = obs.NewWorkerObs()
	}
	g, err := NewGroup(n, func(i int) (Config, error) {
		return Config{ID: i, N: n, System: realSystem(), Spec: spec, Shard: shards[i],
			Transport: NewBrokerTransport(b, i, ""), Obs: sinks[i], Metrics: reg}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget(2*time.Second))
	defer cancel()
	if err := g.Run(ctx); err != nil {
		t.Errorf("group: %v", err)
	}
	for i := range sinks {
		var w obs.WorkerReport
		g.Inspect(ctx, i, func(wk *core.Worker) { w = wk.Report() })
		if w.Phases["compute"] <= 0 {
			t.Fatalf("node %d: no compute time", i)
		}
		if w.Phases["serialize"] <= 0 {
			t.Fatalf("node %d: no serialize time", i)
		}
		if w.Phases["send"] <= 0 {
			t.Fatalf("node %d: no send time", i)
		}
		if w.SentMsgs["gradient"] <= 0 || w.RecvMsgs["gradient"] <= 0 {
			t.Fatalf("node %d: gradient traffic missing: %+v", i, w)
		}
	}
	snap := reg.Snapshot()
	if snap["queue.pushed"] <= 0 || snap["queue.popped"] <= 0 {
		t.Fatalf("broker metrics empty: %v", snap)
	}
}
