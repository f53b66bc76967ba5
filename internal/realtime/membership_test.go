package realtime

import (
	"context"
	"sync"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

// Elastic membership over wall-clock time: graceful leaves must flush every
// queued frame, joins must complete through a real transport, and a broker
// restart in the middle of the admission handshake must be survivable.

// elasticBuild configures an n-slot real-mode cluster where ids < founders
// are founders and the rest are joiners sponsored by worker 0; joiners
// begin their handshake immediately on Start.
func elasticBuild(t *testing.T, n, founders int, mkTransport func(id int) Transport, reg *obs.Registry) func(i int) (Config, error) {
	t.Helper()
	dc := data.Config{Name: "rt-elastic", NumClasses: 3, Train: 240, Test: 60,
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
	roster := make([]int, founders)
	for i := range roster {
		roster[i] = i
	}
	return func(i int) (Config, error) {
		sys := realSystem()
		if i < founders {
			sys.Membership = core.MembershipConfig{InitialMembers: roster}
		} else {
			sys.Membership = core.MembershipConfig{Join: true, Sponsor: 0,
				JoinTimeout: budget(60 * time.Second).Seconds(),
				JoinRetry:   0.2}
		}
		return Config{ID: i, N: n, System: sys, Spec: spec,
			Shard: shards[i], Transport: mkTransport(i), Metrics: reg}, nil
	}
}

// elasticNodes builds elasticBuild's cluster as bare nodes, for the tests
// that drive one node's lifecycle by hand.
func elasticNodes(t *testing.T, n, founders int, mkTransport func(id int) Transport, reg *obs.Registry) []*Node {
	t.Helper()
	build := elasticBuild(t, n, founders, mkTransport, reg)
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg, _ := build(i)
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

// inspectWorker reads one loop-owned value off a live node, failing the
// test if the node refuses inspection.
func inspectWorker(t *testing.T, n *Node, fn func(w *core.Worker)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget(5*time.Second))
	defer cancel()
	if err := n.Inspect(ctx, fn); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

// inspectMember is inspectWorker for node i of a running group.
func inspectMember(t *testing.T, g *Group, i int, fn func(w *core.Worker)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget(5*time.Second))
	defer cancel()
	if err := g.Inspect(ctx, i, fn); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func waitForCond(t *testing.T, stage string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget(20 * time.Second))
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never reached", stage)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGracefulLeaveFlushesEverything: a leaving node must drain its
// outbound queues — tombstones included — before the call returns, the
// survivors must renormalize onto the reduced roster, and nothing may be
// shed on the way out.
func TestGracefulLeaveFlushesEverything(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	nodes := elasticNodes(t, 3, 3, func(id int) Transport {
		return NewBrokerTransport(b, id, "")
	}, reg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *Node) { defer wg.Done(); _ = nd.Run(ctx) }(node)
	}

	// let the full roster train together first
	waitForCond(t, "initial training", func() bool {
		ok := true
		for _, nd := range nodes {
			var it int64
			inspectWorker(t, nd, func(w *core.Worker) { it = w.Iter() })
			ok = ok && it >= 2
		}
		return ok
	})

	lctx, lcancel := context.WithTimeout(ctx, budget(10*time.Second))
	defer lcancel()
	if err := nodes[2].Leave(lctx, budget(10*time.Second)); err != nil {
		t.Fatalf("graceful leave dropped frames: %v", err)
	}
	var st core.MemberState
	inspectWorker(t, nodes[2], func(w *core.Worker) { st = w.State() })
	if st != core.StateLeft {
		t.Fatalf("leaver state %v, want left", st)
	}

	// survivors must process the tombstone and shrink to {0, 1}
	waitForCond(t, "tombstone processed", func() bool {
		ok := true
		for _, nd := range nodes[:2] {
			var members []int
			inspectWorker(t, nd, func(w *core.Worker) { members = w.Members() })
			ok = ok && len(members) == 2 && members[0] == 0 && members[1] == 1
		}
		return ok
	})
	// and keep training on the reduced roster
	var itersAfter int64
	inspectWorker(t, nodes[0], func(w *core.Worker) { itersAfter = w.Iter() })
	waitForCond(t, "post-leave training", func() bool {
		var it int64
		inspectWorker(t, nodes[0], func(w *core.Worker) { it = w.Iter() })
		return it > itersAfter
	})

	cancel()
	wg.Wait()
	if drops := reg.Counter("realtime.fifo_drops").Load(); drops != 0 {
		t.Fatalf("%d frames shed during the run; a graceful leave must drop none", drops)
	}
}

// TestJoinOverRealTransport: a joiner admitted through the in-process
// broker must converge onto the founders' roster and train.
func TestJoinOverRealTransport(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	g, err := NewGroup(3, elasticBuild(t, 3, 2, func(id int) Transport {
		return NewBrokerTransport(b, id, "")
	}, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan struct{})
	go func() { defer close(ran); _ = g.Run(ctx) }()
	defer func() { cancel(); <-ran }()

	waitForCond(t, "join admitted", func() bool {
		var st core.MemberState
		var it int64
		inspectMember(t, g, 2, func(w *core.Worker) { st, it = w.State(), w.Iter() })
		return st == core.StateActive && it >= 2
	})
	want := []int{0, 1, 2}
	waitForCond(t, "roster convergence", func() bool {
		for i := 0; i < 3; i++ {
			var members []int
			inspectMember(t, g, i, func(w *core.Worker) { members = w.Members() })
			if len(members) != len(want) {
				return false
			}
			for i := range want {
				if members[i] != want[i] {
					return false
				}
			}
		}
		return true
	})
}

// TestBrokerRestartDuringJoinHandshake is the churn acceptance test for the
// realtime substrate: the TCP broker dies right before a joiner starts its
// admission handshake and comes back mid-retry. The joiner's HELLO rides
// the reconnecting transport, the core's join-retry timer keeps re-offering,
// and the admission must complete — solo fallback is a failure here because
// the timeout is far beyond the outage — without deadlocking any node.
func TestBrokerRestartDuringJoinHandshake(t *testing.T) {
	b := queue.NewBroker()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	transports := make([]Transport, 3)
	for i := range transports {
		tr, err := NewClientTransport(addr, i)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
	}
	nodes := elasticNodes(t, 3, 2, func(id int) Transport {
		return transports[id]
	}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	runNode := func(nd *Node) {
		wg.Add(1)
		go func() { defer wg.Done(); _ = nd.Run(ctx) }()
	}
	runNode(nodes[0])
	runNode(nodes[1])

	// founders healthy, then the broker dies
	waitForCond(t, "founders training", func() bool {
		ok := true
		for _, nd := range nodes[:2] {
			var it int64
			inspectWorker(t, nd, func(w *core.Worker) { it = w.Iter() })
			ok = ok && it >= 1
		}
		return ok
	})
	srv.Close()

	// the joiner starts its handshake into the outage: its HELLO stalls in
	// the reconnecting transport until the broker returns
	runNode(nodes[2])
	time.Sleep(budget(300 * time.Millisecond))

	var srv2 *queue.Server
	for i := 0; i < 50; i++ {
		srv2, err = queue.Serve(b, addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("broker restart: %v", err)
	}

	// admission must complete through the restarted broker
	waitForCond(t, "join across restart", func() bool {
		var st core.MemberState
		var it int64
		inspectWorker(t, nodes[2], func(w *core.Worker) { st, it = w.State(), w.Iter() })
		return st == core.StateActive && it >= 1
	})
	var members []int
	inspectWorker(t, nodes[0], func(w *core.Worker) { members = w.Members() })
	if len(members) != 3 {
		t.Fatalf("founder roster %v after join, want 3 members", members)
	}
	// solo fallback would also reach StateActive; the roster check above
	// rules it out on the founder side, and the joiner's must match
	inspectWorker(t, nodes[2], func(w *core.Worker) { members = w.Members() })
	if len(members) != 3 {
		t.Fatalf("joiner roster %v, want 3 members", members)
	}

	cancel()
	wg.Wait()
	for _, tr := range transports {
		if err := tr.Close(); err != nil {
			t.Errorf("transport close: %v", err)
		}
	}
	srv2.Close()
	b.Close()
}
