package realtime

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/queue"
)

// TestRealModeBrokerRestart is the real-mode acceptance scenario: the TCP
// broker is killed and restarted mid-run. The queue.Clients must carry the
// nodes across the outage — they resubscribe their blocking pops, training
// resumes, and once everything shuts down no goroutines are left behind.
func TestRealModeBrokerRestart(t *testing.T) {
	beforeGoroutines := runtime.NumGoroutine()

	b := queue.NewBroker()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	const n = 2
	dc := data.Config{Name: "chaos-rt", NumClasses: 3, Train: 240, Test: 60,
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

	// wrap each transport so the test can observe deliveries race-free
	// while the nodes are live (Worker.Stats is event-loop-owned)
	transports := make([]*countingTransport, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		tr, err := NewClientTransport(addr, i)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = &countingTransport{Transport: tr}
		node, err := NewNode(Config{
			ID: i, N: n, System: realSystem(), Spec: spec,
			Shard: shards[i], Transport: transports[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			if err := nd.Run(ctx); err != nil {
				t.Errorf("node: %v", err)
			}
		}(node)
	}

	waitFor := func(stage string, cond func() bool) {
		deadline := time.Now().Add(budget(20 * time.Second))
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: never reached", stage)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// phase 1: healthy training — every node hears a peer — then the
	// broker dies
	waitFor("healthy traffic", func() bool {
		for _, tr := range transports {
			if tr.recvd.Load() < 1 {
				return false
			}
		}
		return true
	})
	srv.Close()
	recvdAtKill := make([]int64, n)
	for i, tr := range transports {
		recvdAtKill[i] = tr.recvd.Load()
	}

	// phase 2: dwell in the outage so the clients actually hit broken
	// connections, then restart the broker on the same address (state
	// survives, as a restarted Redis with persistence would)
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

	// phase 3: nodes must resume exchanging. Iterations alone would not
	// prove recovery (async workers keep training against a dead broker),
	// so require received messages past the kill snapshot: those can only
	// arrive through the restarted broker via a reconnected client.
	waitFor("post-restart traffic", func() bool {
		for i, tr := range transports {
			if tr.recvd.Load() <= recvdAtKill[i] {
				return false
			}
		}
		return true
	})
	cancel()
	wg.Wait()

	// the run is over, so Worker.Stats is safe to read: the received
	// traffic must have reached the workers, and training kept going
	for i, nd := range nodes {
		s := nd.Worker().Stats()
		if s.MsgsRecvd < recvdAtKill[i] {
			t.Errorf("node %d: worker saw %d messages, transport delivered %d",
				i, s.MsgsRecvd, recvdAtKill[i])
		}
		if s.Iters < 2 {
			t.Errorf("node %d stalled at %d iterations", i, s.Iters)
		}
	}

	// teardown everything and verify nothing leaked
	for _, tr := range transports {
		if err := tr.Close(); err != nil {
			t.Errorf("transport close: %v", err)
		}
	}
	srv2.Close()
	b.Close()

	deadline := time.Now().Add(budget(5 * time.Second))
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= beforeGoroutines+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutine leak: %d before, %d after\n%s",
		beforeGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestRestartedWorkerReceivesEveryFrame: a worker that exits while its Recv
// is parked and restarts under the same id receives everything sent to it
// afterwards. The old process's pop used to stay parked on the broker, first
// in line, and swallow the next frame: for a rejoining worker, its sponsor's
// WELCOME.
func TestRestartedWorkerReceivesEveryFrame(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func(id int) *ClientTransport {
		tr, err := NewClientTransport(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	sender := dial(0)
	defer sender.Close()

	old := dial(1)
	parked := make(chan error, 1)
	go func() {
		_, err := old.Recv()
		parked <- err
	}()
	time.Sleep(budget(100 * time.Millisecond)) // the pop reaches the broker
	old.Close()
	<-parked
	time.Sleep(budget(20 * time.Millisecond)) // the hang-up reaches the broker

	restarted := dial(1)
	got := make(chan string, 2)
	go func() {
		for {
			p, err := restarted.Recv()
			if err != nil {
				return
			}
			got <- string(p)
		}
	}()
	defer restarted.Close()
	for _, f := range []string{"f1", "f2"} {
		if err := sender.Send(1, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"f1", "f2"} {
		select {
		case p := <-got:
			if p != want {
				t.Fatalf("restarted worker received %q, want %q", p, want)
			}
		case <-time.After(budget(2 * time.Second)):
			t.Fatalf("restarted worker never received %s", want)
		}
	}
}

// TestSendOrderIsFIFOPerPeer pins the per-peer sender: messages enqueued to
// one peer must arrive in order even under load (the old goroutine-per-
// message send made ordering a scheduler lottery, letting a stale weight
// snapshot overtake a fresh one).
func TestSendOrderIsFIFOPerPeer(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	tr := NewBrokerTransport(b, 0)
	defer tr.Close()

	n := &Node{cfg: Config{Transport: tr}, loop: make(chan func(), 16),
		senders: map[int]chan []byte{}, done: make(chan struct{})}
	defer close(n.done)

	const total = 100
	for i := 0; i < total; i++ {
		n.enqueue(1, []byte{byte(i)})
	}
	// drain from the destination list; order must be exactly FIFO (the
	// bounded queue is 256 deep, so nothing was shed here)
	last := -1
	for i := 0; i < total; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		p, err := b.BRPop(ctx, queue.Namespace("").DataKey(1))
		cancel()
		if err != nil {
			t.Fatalf("message %d missing: %v", i, err)
		}
		if got := int(p[0]); got <= last {
			t.Fatalf("reordering: %d arrived after %d", got, last)
		} else {
			last = got
		}
	}
}

// TestSendQueueShedsOldest: when a peer's queue overflows, the oldest
// message is shed, never the newest — fresh state beats stale state.
func TestSendQueueShedsOldest(t *testing.T) {
	blocked := &blockingTransport{release: make(chan struct{})}
	n := &Node{cfg: Config{Transport: blocked}, loop: make(chan func(), 16),
		senders: map[int]chan []byte{}, done: make(chan struct{})}
	defer close(n.done)

	// the sender goroutine wedges on the first message; everything else
	// queues. Overflow by 10 past the queue depth.
	for i := 0; i < sendQueueDepth+11; i++ {
		n.enqueue(1, []byte{byte(i % 251)})
	}
	close(blocked.release)

	deadline := time.Now().Add(budget(5 * time.Second))
	for blocked.count() < sendQueueDepth+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := blocked.payloads()
	// message 0 went straight to the (blocked) transport; of the rest, the
	// oldest 10 queued messages were shed, and the newest must be last
	if len(got) < 2 {
		t.Fatalf("only %d messages reached the transport", len(got))
	}
	lastWant := byte((sendQueueDepth + 10) % 251)
	if got[len(got)-1][0] != lastWant {
		t.Fatalf("newest message shed: last delivered %d, want %d",
			got[len(got)-1][0], lastWant)
	}
}

// countingTransport counts successful Recvs so a test can watch delivery
// progress from outside the event loop.
type countingTransport struct {
	Transport
	recvd atomic.Int64
}

func (c *countingTransport) Recv() ([]byte, error) {
	p, err := c.Transport.Recv()
	if err == nil {
		c.recvd.Add(1)
	}
	return p, err
}

type blockingTransport struct {
	release chan struct{}
	mu      sync.Mutex
	sent    [][]byte
}

func (b *blockingTransport) Send(_ int, p []byte) error {
	<-b.release
	b.mu.Lock()
	b.sent = append(b.sent, p)
	b.mu.Unlock()
	return nil
}
func (b *blockingTransport) Recv() ([]byte, error) { select {} }
func (b *blockingTransport) Close() error          { return nil }
func (b *blockingTransport) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sent)
}
func (b *blockingTransport) payloads() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]byte(nil), b.sent...)
}
