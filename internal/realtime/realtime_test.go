package realtime

import (
	"context"
	"sync"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/queue"
)

func realSystem() core.Config {
	return core.Config{
		Name:         "real",
		LearningRate: 0.05,
		NewSelector:  func() grad.Selector { return grad.NewMaxN(100) },
		Batch:        core.BatchConfig{InitialLBS: 8},
		Sync:         core.SyncConfig{Mode: core.SyncAsync},
	}
}

// runRealCluster trains an n-node group for d and returns its workers, which
// are quiescent once Run has returned.
func runRealCluster(t *testing.T, n int, mkTransport func(id int) Transport, d time.Duration) []*core.Worker {
	t.Helper()
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
	g, err := NewGroup(n, func(i int) (Config, error) {
		return Config{ID: i, N: n, System: realSystem(), Spec: spec,
			Shard: shards[i], Transport: mkTransport(i)}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := g.Run(ctx); err != nil {
		t.Errorf("group: %v", err)
	}
	return groupWorkers(g)
}

// groupWorkers returns a stopped group's workers.
func groupWorkers(g *Group) []*core.Worker {
	ws := make([]*core.Worker, len(g.nodes))
	for i := range ws {
		g.Inspect(context.Background(), i, func(w *core.Worker) { ws[i] = w })
	}
	return ws
}

// budget scales test wall-time for the race detector's ~20x slowdown.
func budget(d time.Duration) time.Duration {
	if raceEnabled {
		return d * 6
	}
	return d
}

func TestRealModeInProcBroker(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	workers := runRealCluster(t, 3, func(id int) Transport {
		return NewBrokerTransport(b, id, "")
	}, budget(2*time.Second))
	for i, w := range workers {
		s := w.Stats()
		if s.Iters < 2 {
			t.Fatalf("node %d made only %d iterations", i, s.Iters)
		}
		if s.MsgsSent == 0 {
			t.Fatalf("node %d sent nothing", i)
		}
	}
	// cross-worker updates must have landed: peers' gradient messages are
	// recorded via sent bytes on both sides
	total := int64(0)
	for _, w := range workers {
		total += w.Stats().BytesSent
	}
	if total == 0 {
		t.Fatal("no traffic")
	}
}

func TestRealModeTCPBroker(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	workers := runRealCluster(t, 2, func(id int) Transport {
		tr, err := NewClientTransport(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}, budget(2*time.Second))
	for i, w := range workers {
		s := w.Stats()
		if s.Iters < 1 {
			t.Fatalf("node %d made no progress", i)
		}
		// delivery, not just submission: a transport that wedges its sends
		// behind its own blocking pop passes every send-side assertion
		if s.MsgsRecvd == 0 {
			t.Fatalf("node %d never received a message over TCP", i)
		}
	}
}

func TestRealModeLearns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-dependent")
	}
	b := queue.NewBroker()
	defer b.Close()
	workers := runRealCluster(t, 2, func(id int) Transport {
		return NewBrokerTransport(b, id, "")
	}, 3*time.Second)
	// training loss should have dropped below the ln(3)≈1.1 chance level
	for i, w := range workers {
		if l := w.AvgRecentLoss(); l > 1.2 {
			t.Fatalf("node %d loss %.3f did not improve", i, l)
		}
	}
}

func TestNewNodeNilTransport(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("nil transport must error")
	}
}

func TestInspectRunsOnLoopAndFailsAfterStop(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	dc := data.Config{Name: "ins", NumClasses: 3, Train: 120, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 8}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := nn.CipherSpec(1, 8, 8, 3, 5)
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i], err = NewNode(Config{ID: i, N: 2, System: realSystem(),
			Spec: spec, Shard: shards[i], Transport: NewBrokerTransport(b, i, "")})
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *Node) { defer wg.Done(); _ = nd.Run(ctx) }(node)
	}

	// Inspect must observe a quiescent worker and see training progress.
	deadline := time.Now().Add(budget(5 * time.Second))
	var iter int64
	for iter < 2 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached 2 iterations")
		}
		ictx, icancel := context.WithTimeout(ctx, budget(time.Second))
		err := nodes[0].Inspect(ictx, func(w *core.Worker) { iter = w.Iter() })
		icancel()
		if err != nil {
			t.Fatalf("inspect: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	wg.Wait()
	// After Run exits the node must refuse inspection rather than hang.
	if err := nodes[0].Inspect(context.Background(), func(*core.Worker) {}); err == nil {
		t.Fatal("Inspect after stop must fail")
	}
}
