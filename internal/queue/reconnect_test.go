package queue

import (
	"errors"
	"net"
	"testing"
	"time"
)

func serveBroker(t *testing.T, b *Broker, addr string) *Server {
	t.Helper()
	var srv *Server
	var err error
	// re-binding the freed port can momentarily race the old listener
	for i := 0; i < 50; i++ {
		srv, err = Serve(b, addr)
		if err == nil {
			return srv
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, err)
	return nil
}

// dialT returns a client for addr, which the test knows is well formed.
func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
	}
}

// TestDialRejectsMalformedAddress: Dial fails fast on an address that is
// not a host:port, and accepts a well-formed one without connecting.
func TestDialRejectsMalformedAddress(t *testing.T) {
	for _, addr := range []string{"", "nonsense", "127.0.0.1"} {
		if c, err := Dial(addr); err == nil {
			c.Close()
			t.Errorf("Dial(%q) accepted a malformed address", addr)
		}
	}
	c, err := Dial("127.0.0.1:1") // nothing listens there: the dial is lazy
	if err != nil {
		t.Fatalf("Dial of a well-formed address: %v", err)
	}
	c.Close()
}

func TestClientSurvivesBrokerRestart(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv := serveBroker(t, b, "127.0.0.1:0")
	addr := srv.Addr()

	c := dialT(t, addr)
	defer c.Close()
	if err := c.LPush("k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if p, err := c.BRPop("k", time.Second); err != nil || string(p) != "one" {
		t.Fatalf("BRPop before restart: %q, %v", p, err)
	}

	srv.Close() // broker process dies; the broker state itself survives
	srv2 := serveBroker(t, b, addr)
	defer srv2.Close()

	// The same client must recover without any explicit redial. A write
	// into the dead socket can be silently buffered by the kernel before
	// the RST arrives (delivery is at-most-once), so prove reconnection
	// with a round-trip first: this BRPop detects the broken connection,
	// redials, and times out cleanly against the fresh broker.
	if _, err := c.BRPop("k", 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("BRPop across restart: %v, want timeout", err)
	}
	if err := c.LPush("k", []byte("two")); err != nil {
		t.Fatalf("LPush after restart: %v", err)
	}
	if p, err := c.BRPop("k", time.Second); err != nil || string(p) != "two" {
		t.Fatalf("BRPop after restart: %q, %v", p, err)
	}
}

func TestClientLazyDial(t *testing.T) {
	addr := deadAddr(t)
	c := dialT(t, addr)
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.LPush("k", []byte("early")) }()

	// the broker comes up after the client started pushing
	time.Sleep(30 * time.Millisecond)
	b := NewBroker()
	defer b.Close()
	srv := serveBroker(t, b, addr)
	defer srv.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("LPush through lazy dial: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LPush never recovered after the broker came up")
	}
	if p, err := c.BRPop("k", time.Second); err != nil || string(p) != "early" {
		t.Fatalf("BRPop: %q, %v", p, err)
	}
}

func TestReconnectingSubscribeResubscribes(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv := serveBroker(t, b, "127.0.0.1:0")
	addr := srv.Addr()

	c := dialT(t, addr)
	defer c.Close()
	sub, err := c.Subscribe("ch", 16)
	if err != nil {
		t.Fatal(err)
	}

	pub := dialT(t, addr)
	defer pub.Close()

	recvOne := func(stage string) {
		deadline := time.After(5 * time.Second)
		for {
			// publish repeatedly: PUB/SUB drops messages sent while the
			// subscriber is (re)connecting
			if err := pub.Publish("ch", []byte(stage)); err != nil {
				t.Fatalf("%s publish: %v", stage, err)
			}
			select {
			case p, ok := <-sub:
				if !ok {
					t.Fatalf("%s: subscription channel closed", stage)
				}
				if string(p) == stage {
					return
				}
			case <-deadline:
				t.Fatalf("%s: nothing received", stage)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	recvOne("before")
	srv.Close()
	srv2 := serveBroker(t, b, addr)
	defer srv2.Close()
	recvOne("after") // the same channel must deliver again post-restart
}

func TestClientCloseUnblocksRedial(t *testing.T) {
	c := dialT(t, deadAddr(t))
	done := make(chan error, 1)
	go func() {
		_, err := c.BRPop("k", 0) // retries forever against a dead address
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("BRPop after Close: %v, want ErrClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not unblock the retry loop")
	}
}

// TestSubscribeSlowConsumerClose: a subscriber that never drains its
// channel must not wedge Close — the reader goroutine used to block on the
// channel send forever, so Close hung on subWait.Wait().
func TestSubscribeSlowConsumerClose(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("ch", 1); err != nil { // deliberately never read
		t.Fatal(err)
	}
	// overflow the 1-slot client buffer so the reader goroutine is blocked
	// mid-send when Close arrives
	pub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 16; i++ {
		if err := pub.Publish("ch", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the frames reach the reader

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a slow consumer")
	}
}

// TestServerSurvivesClientVanishingMidBRPop: a client that disappears while
// its BRPop is parked server-side must not wedge the server — Close has to
// finish promptly and other clients keep working.
func TestServerSurvivesClientVanishingMidBRPop(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	popErr := make(chan error, 1)
	go func() {
		_, err := c.BRPop("empty", 0) // blocks server-side forever
		popErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // request reaches the broker wait

	// the client dies abruptly mid-BRPop
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if err := <-popErr; err == nil {
		t.Fatal("BRPop should fail when its connection dies")
	}

	// the server must still serve fresh clients...
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LPush("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if p, err := c2.BRPop("k", time.Second); err != nil || string(p) != "v" {
		t.Fatalf("BRPop on healthy client: %q, %v", p, err)
	}
	c2.Close()

	// ...and shut down promptly despite the vanished waiter
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung after abrupt client disconnect")
	}
}

// TestVanishedConsumerDoesNotTakeNextFrame: a consumer that closes while
// its BRPop is parked must stop waiting server-side. Otherwise its waiter
// stays first in line and swallows the next frame pushed to the list, and
// the live consumer behind it gets nothing.
func TestVanishedConsumerDoesNotTakeNextFrame(t *testing.T) {
	b, srv := startServer(t)
	gone := dialT(t, srv.Addr())
	parked := make(chan error, 1)
	go func() {
		_, err := gone.BRPop("k", 0)
		parked <- err
	}()
	waitForWaiter(t, b, "k")
	gone.Close()
	<-parked
	waitUntil(t, "the vanished consumer's wait ends", func() bool { return waiters(b, "k") == 0 })

	live := dialT(t, srv.Addr())
	defer live.Close()
	got := make(chan []byte, 1)
	go func() {
		p, _ := live.BRPop("k", 5*time.Second)
		got <- p
	}()
	waitForWaiter(t, b, "k")
	pusher := dialT(t, srv.Addr())
	defer pusher.Close()
	if err := pusher.LPush("k", []byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	if p := <-got; string(p) != "frame-1" {
		t.Fatalf("live consumer got %q, want frame-1", p)
	}
}

// waiters returns how many BRPops are parked on key.
func waiters(b *Broker, key string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.waiters[key])
}

// TestBackoffGrowthCapAndJitter pins the redial ladder: waits double from
// backoffInitial up to backoffMax and stay capped there, and the jitter
// factor spans exactly [1-backoffJitter, 1+backoffJitter].
func TestBackoffGrowthCapAndJitter(t *testing.T) {
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000, 2000}
	for attempt, ms := range want {
		if got := backoff(attempt, 0.5); got != ms*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, ms*time.Millisecond)
		}
	}
	if got := backoff(1000, 0.5); got != backoffMax {
		t.Errorf("backoff(1000) = %v, want the cap %v", got, backoffMax)
	}
	if lo, hi := backoff(0, 0), backoff(0, 1); lo != 40*time.Millisecond || hi != 60*time.Millisecond {
		t.Errorf("jitter envelope of the first wait [%v, %v], want [40ms, 60ms]", lo, hi)
	}
}
