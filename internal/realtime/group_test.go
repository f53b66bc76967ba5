package realtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/queue"
	"dlion/internal/wire"
)

// groupShards partitions the small real-mode dataset the group tests train on.
func groupShards(t *testing.T, n int) []*data.Shard {
	t.Helper()
	dc := data.Config{Name: "group", NumClasses: 3, Train: 240, Test: 60,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 21}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// startGroup runs g in the background; call the returned stop once to
// cancel it and collect Run's error.
func startGroup(g *Group) (ctx context.Context, stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- g.Run(ctx) }()
	return ctx, func() error { cancel(); return <-ran }
}

// TestGroupReleasesBrokerKeys: two lock-step groups back to back on one
// in-process broker, on the same data keys, must both finish. A group that
// left its transports open would leave each node's receive pump parked in
// BRPop, and the broker hands a frame to its longest-waiting consumer: the
// second group's first frames would go to the first group's dead nodes and
// the second group would wedge at its first round.
func TestGroupReleasesBrokerKeys(t *testing.T) {
	const n, iters = 3, 20
	b := queue.NewBroker()
	defer b.Close()
	shards := groupShards(t, n)
	sys := realSystem()
	sys.Sync = core.SyncConfig{Mode: core.SyncFull}
	sys.MaxIters = iters
	want := int64(n-1) * iters
	for session := 1; session <= 2; session++ {
		g, err := NewGroup(n, func(i int) (Config, error) {
			return Config{ID: i, N: n, System: sys, Spec: nn.CipherSpec(1, 8, 8, 3, 5),
				Shard: shards[i], Transport: NewBrokerTransport(b, i, "")}, nil
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx, stop := startGroup(g)
		deadline := time.Now().Add(budget(10 * time.Second))
		for i := 0; i < n; i++ {
			for settled := false; !settled; time.Sleep(2 * time.Millisecond) {
				if time.Now().After(deadline) {
					stop()
					for j := 0; j < n; j++ {
						g.Inspect(ctx, j, func(w *core.Worker) {
							t.Logf("session %d node %d: iteration %d, %d messages received", session, j, w.Iter(), w.Stats().MsgsRecvd)
						})
					}
					t.Fatalf("session %d never finished %d iterations with %d messages each", session, iters, want)
				}
				g.Inspect(ctx, i, func(w *core.Worker) { settled = w.Iter() == iters && w.Stats().MsgsRecvd == want })
			}
		}
		if err := stop(); err != nil {
			t.Fatalf("session %d: %v", session, err)
		}
	}
}

// TestGroupBuildFailureReleasesTransports: when node 2 fails to build, the
// two transports already built are closed, so nothing they started — here a
// receive parked in the broker, as a prefetching transport's would be —
// outlives NewGroup.
func TestGroupBuildFailureReleasesTransports(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	shards := groupShards(t, 4)
	before := runtime.NumGoroutine()
	_, err := NewGroup(4, func(i int) (Config, error) {
		if i == 2 {
			return Config{}, errors.New("no such worker")
		}
		tr := NewBrokerTransport(b, i, "")
		go tr.Recv()
		return Config{ID: i, N: 4, System: realSystem(), Spec: nn.CipherSpec(1, 8, 8, 3, 5),
			Shard: shards[i], Transport: tr}, nil
	}, 0)
	if err == nil {
		t.Fatal("NewGroup succeeded with a failing build")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 2 s after the failed build, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupCrashRestoresCheckpoint: Crash restarts the node from the
// checkpoint the group recorded, not from its initial weights. The restarted
// incarnation is built from another init seed and asks a sponsor nobody
// serves to admit it, so it never trains: its weights are exactly what the
// restart left in them, and they must digest to the checkpoint's manifest.
func TestGroupCrashRestoresCheckpoint(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	// The restarted node's sponsor, 1, never runs; its registered list
	// takes the HELLOs, which would otherwise wait for it to register.
	defer NewBrokerTransport(b, 1, "").Close()
	shards := groupShards(t, 2)
	builds := 0
	g, err := NewGroup(1, func(i int) (Config, error) {
		builds++
		sys, seed := realSystem(), uint64(5)
		sys.Membership.InitialMembers = []int{0}
		if builds > 1 {
			sys.Membership = core.MembershipConfig{Join: true, Sponsor: 1, JoinTimeout: 600, JoinRetry: 0.2}
			seed = 6
		}
		return Config{ID: 0, N: 2, System: sys, Spec: nn.CipherSpec(1, 8, 8, 3, seed),
			Shard: shards[0], Transport: NewBrokerTransport(b, 0, "")}, nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := startGroup(g)
	defer stop()
	waitForCond(t, "training", func() bool {
		var it int64
		g.Inspect(ctx, 0, func(w *core.Worker) { it = w.Iter() })
		return it >= 2
	})
	_, _, man, err := g.Checkpoint(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Crash(0); err != nil {
		t.Fatal(err)
	}
	var got map[string]lineage.Hash
	waitForCond(t, "restart", func() bool {
		var st core.MemberState
		err := g.Inspect(ctx, 0, func(w *core.Worker) {
			st, got = w.State(), lineage.VarHashes(w.Model().Weights())
		})
		return err == nil && st == core.StateJoining
	})
	if r := g.Restarts(); r != 1 {
		t.Fatalf("%d restarts, want 1", r)
	}
	for name, h := range man.Vars {
		if got[name] != h {
			t.Fatalf("restarted node's %s digests to %s, its checkpoint to %s", name, got[name], h)
		}
	}
}

// TestGroupRunFailsOnceBudgetSpent: with one restart to spend, the first
// crash restarts the node and the second stops the group with an error.
func TestGroupRunFailsOnceBudgetSpent(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	shards := groupShards(t, 2)
	g, err := NewGroup(2, func(i int) (Config, error) {
		return Config{ID: i, N: 2, System: realSystem(), Spec: nn.CipherSpec(1, 8, 8, 3, 5),
			Shard: shards[i], Transport: NewBrokerTransport(b, i, "")}, nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- g.Run(context.Background()) }()
	waitForCond(t, "first restart", func() bool {
		g.Crash(0) // fails until the node runs
		return g.Restarts() == 1
	})
	for deadline := time.Now().Add(budget(10 * time.Second)); ; time.Sleep(2 * time.Millisecond) {
		select {
		case err := <-ran:
			if err == nil || !strings.Contains(err.Error(), "restart budget") {
				t.Fatalf("Run returned %v, want the spent restart budget", err)
			}
			if r := g.Restarts(); r != 1 {
				t.Fatalf("%d restarts, want 1", r)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Run never returned after the budget was spent")
		}
		g.Crash(0)
	}
}

// TestGroupSlowRestartRejoins: node 0 crashes and its restart takes 0.6 s,
// three liveness timeouts. Meanwhile nodes 1 and 2, blocked on SyncFull,
// suspect node 0 and only node 0: they keep exchanging gradients. The
// restarted node rejoins through node 1 at node 1's iteration, not at 0
// and not below its checkpoint, and every roster ends [0 1 2].
func TestGroupSlowRestartRejoins(t *testing.T) {
	const n = 3
	b := queue.NewBroker()
	defer b.Close()
	shards := groupShards(t, n)
	sys := realSystem()
	sys.Sync = core.SyncConfig{Mode: core.SyncFull}
	sys.LivenessTimeout = 0.2
	var builds [n]atomic.Int32
	var grads [n][n]atomic.Int64 // gradient frames received, [to][from]
	g, err := NewGroup(n, func(i int) (Config, error) {
		if builds[i].Add(1) > 1 {
			time.Sleep(600 * time.Millisecond)
		}
		return Config{ID: i, N: n, System: sys, Spec: nn.CipherSpec(1, 8, 8, 3, 5), Shard: shards[i],
			Transport: gradTap{NewBrokerTransport(b, i, ""), &grads[i]}}, nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := startGroup(g)
	defer stop()
	iterOf := func(i int) (it int64) {
		g.Inspect(ctx, i, func(w *core.Worker) { it = w.Iter() })
		return it
	}
	waitForCond(t, "training", func() bool { return iterOf(0) >= 5 })
	ckptIter, _, _, err := g.Checkpoint(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Crash(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(budget(300 * time.Millisecond)) // past the suspicion, inside the restart
	from2, from1 := grads[1][2].Load(), grads[2][1].Load()
	waitForCond(t, "survivors exchanging", func() bool {
		return grads[1][2].Load() > from2 && grads[2][1].Load() > from1
	})
	waitForCond(t, "rejoin", func() bool {
		settled := true
		for i := 0; i < n; i++ {
			err := g.Inspect(ctx, i, func(w *core.Worker) {
				settled = settled && w.State() == core.StateActive && fmt.Sprint(w.Members()) == "[0 1 2]"
			})
			settled = settled && err == nil
		}
		return settled && g.Restarts() == 1
	})
	var welcome *core.EpochChange
	g.Inspect(ctx, 0, func(w *core.Worker) {
		for _, e := range w.MembershipLog() {
			if e.Reason == "welcome" {
				welcome = &e
			}
		}
	})
	if welcome == nil || welcome.Iter < ckptIter {
		t.Fatalf("restarted node admitted at %+v, checkpoint at iteration %d", welcome, ckptIter)
	}
	from2, from1 = grads[1][2].Load(), grads[2][1].Load()
	waitForCond(t, "exchanging after the rejoin", func() bool {
		return grads[1][2].Load() > from2 && grads[2][1].Load() > from1 && iterOf(0) > welcome.Iter
	})
}

// gradTap counts the gradient frames its node receives, by sender.
type gradTap struct {
	Transport
	from *[3]atomic.Int64
}

func (t gradTap) Recv() ([]byte, error) {
	p, err := t.Transport.Recv()
	if err == nil {
		if m, derr := wire.Decode(p); derr == nil {
			if m.Type == wire.TypeGradient {
				t.from[m.From].Add(1)
			}
			m.Release()
		}
	}
	return p, err
}

// TestGroupInspectAfterRun: before Run and once it has returned, Inspect
// reaches the stopped workers directly — no event loop and no live context
// needed — while Crash after Run has nothing left to crash.
func TestGroupInspectAfterRun(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	shards := groupShards(t, 2)
	g, err := NewGroup(2, func(i int) (Config, error) {
		return Config{ID: i, N: 2, System: realSystem(), Spec: nn.CipherSpec(1, 8, 8, 3, 5),
			Shard: shards[i], Transport: NewBrokerTransport(b, i, "")}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	expired, stop := context.WithCancel(context.Background())
	stop()
	iter0 := int64(-1)
	if err := g.Inspect(expired, 0, func(w *core.Worker) { iter0 = w.Iter() }); err != nil || iter0 != 0 {
		t.Fatalf("Inspect before Run: iteration %d, %v", iter0, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget(500*time.Millisecond))
	defer cancel()
	if err := g.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var iter int64
		if err := g.Inspect(ctx, i, func(w *core.Worker) { iter = w.Iter() }); err != nil {
			t.Fatalf("Inspect after Run: %v", err)
		}
		if iter < 1 {
			t.Fatalf("node %d: iteration %d after Run", i, iter)
		}
	}
	if err := g.Crash(0); err == nil {
		t.Fatal("Crash after Run succeeded")
	}
}

// TestGroupStopsPromptlyAfterAPeerVanishes: a node that kept sending to a
// peer process after the peer stopped and released its address drops those
// frames, instead of waiting for the peer to register again, so its group
// stops well within the flush timeout. The peer is a separate process's
// ClientTransport, reached one hop away.
func TestGroupStopsPromptlyAfterAPeerVanishes(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shards := groupShards(t, 2)
	g, err := NewGroup(1, func(i int) (Config, error) {
		return Config{ID: 0, N: 2, System: realSystem(), Spec: nn.CipherSpec(1, 8, 8, 3, 5),
			Shard: shards[0], Transport: NewBrokerTransport(b, 0, "")}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stopGroup := startGroup(g)
	stop := sync.OnceValue(stopGroup)
	defer stop()
	tr, err := NewClientTransport(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewNode(Config{ID: 1, N: 2, System: realSystem(), Spec: nn.CipherSpec(1, 8, 8, 3, 5),
		Shard: shards[1], Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- peer.Run(pctx) }()
	recvd := func(inspect func(context.Context, func(*core.Worker)) error) (n int64) {
		inspect(ctx, func(w *core.Worker) { n = w.Stats().MsgsRecvd })
		return n
	}
	waitForCond(t, "an exchange both ways", func() bool {
		return recvd(peer.Inspect) >= 2 && recvd(func(c context.Context, fn func(*core.Worker)) error {
			return g.Inspect(c, 0, fn)
		}) >= 2
	})
	pcancel()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	tr.Close()
	var from int64
	g.Inspect(ctx, 0, func(w *core.Worker) { from = w.Iter() })
	waitForCond(t, "training past the peer's exit", func() bool {
		var it int64
		g.Inspect(ctx, 0, func(w *core.Worker) { it = w.Iter() })
		return it >= from+5
	})
	t0 := time.Now()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= flushTimeout/2 {
		t.Fatalf("the group took %v to stop", d)
	}
}
