package queue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dlion/internal/obs"
)

// pop takes the head of key without waiting, through BRPop with a context
// that is already done: ok is false when the list is empty.
func pop(b *Broker, key string) ([]byte, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := b.BRPop(ctx, key)
	return p, err == nil
}

func TestPubSubFanout(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s1, err := b.Subscribe("ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := b.Subscribe("ctrl", 8)
	n, err := b.Publish("ctrl", []byte("go"))
	if err != nil || n != 2 {
		t.Fatalf("published to %d, err %v", n, err)
	}
	for _, s := range []*Subscription{s1, s2} {
		select {
		case p := <-s.C:
			if string(p) != "go" {
				t.Fatalf("payload %q", p)
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber starved")
		}
	}
}

func TestPublishNoSubscribers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	n, err := b.Publish("empty", []byte("x"))
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestSubscribeCancel(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s, _ := b.Subscribe("c", 4)
	s.Cancel()
	s.Cancel() // idempotent
	if _, ok := <-s.C; ok {
		t.Fatal("C must be closed after Cancel")
	}
	n, _ := b.Publish("c", []byte("x"))
	if n != 0 {
		t.Fatal("canceled subscriber still receiving")
	}
}

func TestSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s, _ := b.Subscribe("c", 2)
	for i := 0; i < 5; i++ {
		b.Publish("c", []byte{byte(i)})
	}
	// buffer holds the two newest messages (3, 4)
	got := []byte{(<-s.C)[0], (<-s.C)[0]}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("got %v, want [3 4]", got)
	}
}

func TestListFIFO(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.LPush("q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len("q") != 3 {
		t.Fatalf("len %d", b.Len("q"))
	}
	for i := 0; i < 3; i++ {
		p, ok := pop(b, "q")
		if !ok || p[0] != byte(i) {
			t.Fatalf("pop %d: %v %v", i, p, ok)
		}
	}
	if _, ok := pop(b, "q"); ok {
		t.Fatal("empty list must report !ok")
	}
}

func TestBRPopImmediate(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	b.LPush("q", []byte("a"))
	p, err := b.BRPop(context.Background(), "q")
	if err != nil || string(p) != "a" {
		t.Fatalf("%q %v", p, err)
	}
}

func TestBRPopBlocksUntilPush(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	done := make(chan []byte, 1)
	go func() {
		p, err := b.BRPop(context.Background(), "q")
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	time.Sleep(10 * time.Millisecond)
	b.LPush("q", []byte("late"))
	select {
	case p := <-done:
		if string(p) != "late" {
			t.Fatalf("got %q", p)
		}
	case <-time.After(time.Second):
		t.Fatal("BRPop never woke")
	}
}

func TestBRPopContextCancel(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.BRPop(ctx, "q"); err == nil {
		t.Fatal("expected context error")
	}
	// The canceled waiter must be deregistered: a subsequent push should
	// stay on the list, not vanish into the dead waiter.
	b.LPush("q", []byte("x"))
	if b.Len("q") != 1 {
		t.Fatalf("len %d; payload leaked to dead waiter", b.Len("q"))
	}
}

// TestRequeueGoesToHead: a frame given back after its consumer vanished is
// the next one popped, ahead of frames queued behind it, or goes straight
// to a consumer already waiting; the pop it undoes is uncounted.
func TestRequeueGoesToHead(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	b.SetMetrics(reg)
	b.LPush("q", []byte("a"))
	b.LPush("q", []byte("b"))
	a, _ := pop(b, "q")
	b.requeue("q", a)
	for _, want := range []string{"a", "b"} {
		if p, ok := pop(b, "q"); !ok || string(p) != want {
			t.Fatalf("pop %q, %v; want %q", p, ok, want)
		}
	}
	if snap := reg.Snapshot(); snap["queue.popped"] != 2 || snap["queue.list_depth"] != 0 {
		t.Fatalf("accounting after requeue: %v", snap)
	}

	got := make(chan []byte, 1)
	go func() {
		p, _ := b.BRPop(context.Background(), "w")
		got <- p
	}()
	waitForWaiter(t, b, "w")
	b.requeue("w", []byte("c"))
	if p := <-got; string(p) != "c" {
		t.Fatalf("waiting consumer got %q, want c", p)
	}
}

func TestBRPopMultipleWaitersFIFO(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	results := make(chan string, 2)
	var ready sync.WaitGroup
	for i := 0; i < 2; i++ {
		ready.Add(1)
		go func() {
			ready.Done()
			p, err := b.BRPop(context.Background(), "q")
			if err != nil {
				t.Error(err)
				return
			}
			results <- string(p)
		}()
	}
	ready.Wait()
	time.Sleep(10 * time.Millisecond)
	b.LPush("q", []byte("one"))
	b.LPush("q", []byte("two"))
	got := map[string]bool{<-results: true, <-results: true}
	if !got["one"] || !got["two"] {
		t.Fatalf("got %v", got)
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker()
	s, _ := b.Subscribe("c", 4)
	errc := make(chan error, 1)
	go func() {
		_, err := b.BRPop(context.Background(), "q")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	if _, ok := <-s.C; ok {
		t.Fatal("subscription must close on broker close")
	}
	if err := <-errc; err != ErrClosed {
		t.Fatalf("BRPop after close: %v", err)
	}
	if err := b.LPush("q", nil); err != ErrClosed {
		t.Fatalf("LPush after close: %v", err)
	}
	if _, err := b.Subscribe("c", 1); err != ErrClosed {
		t.Fatalf("Subscribe after close: %v", err)
	}
	if _, err := b.Publish("c", nil); err != ErrClosed {
		t.Fatalf("Publish after close: %v", err)
	}
	b.Close() // idempotent
}

func TestConcurrentPushPop(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	const n = 200
	var wg sync.WaitGroup
	seen := make(chan byte, n)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				p, err := b.BRPop(ctx, "q")
				cancel()
				if err != nil {
					return
				}
				seen <- p[0]
			}
		}()
	}
	for i := 0; i < n; i++ {
		b.LPush("q", []byte{byte(i)})
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("received %d of %d", len(seen), n)
	}
}

// --- TCP transport ---

func startServer(t *testing.T) (*Broker, *Server) {
	t.Helper()
	b := NewBroker()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); b.Close() })
	return b, s
}

func TestTCPListRoundTrip(t *testing.T) {
	_, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LPush("q", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p, err := c.BRPop("q", time.Second)
	if err != nil || string(p) != "hello" {
		t.Fatalf("%q %v", p, err)
	}
}

func TestTCPBRPopTimeout(t *testing.T) {
	_, s := startServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	start := time.Now()
	_, err := c.BRPop("empty", 50*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestTCPPubSub(t *testing.T) {
	_, s := startServer(t)
	pubC, _ := Dial(s.Addr())
	defer pubC.Close()
	subC, _ := Dial(s.Addr())
	defer subC.Close()
	ch, err := subC.Subscribe("ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	// subscription registration races with publish; retry a few times
	deadline := time.After(2 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			pubC.Publish("ctrl", []byte("ping"))
		case p := <-ch:
			if string(p) != "ping" {
				t.Fatalf("payload %q", p)
			}
			return
		case <-deadline:
			t.Fatal("never received publish")
		}
	}
}

func TestTCPCrossClient(t *testing.T) {
	_, s := startServer(t)
	a, _ := Dial(s.Addr())
	defer a.Close()
	b, _ := Dial(s.Addr())
	defer b.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		a.LPush("shared", []byte("x"))
	}()
	p, err := b.BRPop("shared", 2*time.Second)
	if err != nil || string(p) != "x" {
		t.Fatalf("%q %v", p, err)
	}
}

func TestTCPManyMessages(t *testing.T) {
	_, s := startServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := c.LPush("q", []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		p, err := c.BRPop("q", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(p) != fmt.Sprintf("m%03d", i) {
			t.Fatalf("out of order at %d: %q", i, p)
		}
	}
}

func TestClientCloseUnblocksBRPop(t *testing.T) {
	// Regression: Close must not wait on the request mutex a blocked
	// BRPop(timeout=0) holds — closing the connection is what unblocks it.
	_, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	popErr := make(chan error, 1)
	go func() {
		_, err := c.BRPop("never", 0)
		popErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close deadlocked on blocked BRPop")
	}
	select {
	case err := <-popErr:
		if err == nil {
			t.Fatal("BRPop should fail after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BRPop never unblocked")
	}
}

// TestServerCloseUnblocksClients: a server that closes under a parked BRPop
// stalls it, since the client redials with backoff to resume on a restarted
// broker, and the client's Close ends it.
func TestServerCloseUnblocksClients(t *testing.T) {
	b := NewBroker()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, s.Addr())
	errc := make(chan error, 1)
	go func() {
		_, err := c.BRPop("q", 0)
		errc <- err
	}()
	waitForWaiter(t, b, "q")
	s.Close()
	b.Close()
	select {
	case err := <-errc:
		t.Fatalf("BRPop returned %v when the server closed; want it to stall", err)
	case <-time.After(200 * time.Millisecond):
	}
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("BRPop after Close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not end the stalled BRPop")
	}
}
