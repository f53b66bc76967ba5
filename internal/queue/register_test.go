package queue

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dlion/internal/obs"
)

// getNow is key's register value, without waiting.
func getNow(b *Broker, key string) ([]byte, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := b.Get(ctx, key)
	return v, err == nil
}

// TestRegisterSetGet: Get waits for the key's first Set, a later Set
// replaces the value, only the current holder's release removes it, and
// Close ends a waiting Get.
func TestRegisterSetGet(t *testing.T) {
	b := NewBroker()
	got := make(chan string, 1)
	go func() {
		v, _ := b.Get(context.Background(), "k")
		got <- string(v)
	}()
	time.Sleep(10 * time.Millisecond)
	first := b.Set("k", []byte("a"))
	if v := <-got; v != "a" {
		t.Fatalf("waiting Get returned %q, want a", v)
	}
	second := b.Set("k", []byte("b"))
	first()
	if v, ok := getNow(b, "k"); !ok || string(v) != "b" {
		t.Fatalf("after a replaced holder's release: %q, %v; want b", v, ok)
	}
	second()
	if v, ok := getNow(b, "k"); ok {
		t.Fatalf("released key still holds %q", v)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Get(context.Background(), "k")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Get across Close: %v, want ErrClosed", err)
	}
}

// TestHoldLivesWithItsConnection: a held key is set while its client lives,
// is set again after the server restarts (the restart's hang-up released
// it), and is released when the client closes.
func TestHoldLivesWithItsConnection(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv := serveBroker(t, b, "127.0.0.1:0")
	addr := srv.Addr()
	c := dialT(t, addr)
	locals := make(chan net.Addr, 4)
	if err := c.Hold("k", func(local net.Addr) ([]byte, error) {
		locals <- local
		return []byte("v"), nil
	}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the key is set", func() bool { _, ok := getNow(b, "k"); return ok })
	if local := <-locals; local.String() == "" {
		t.Fatal("value was given no local address")
	}

	srv.Close()
	if _, ok := getNow(b, "k"); ok {
		t.Fatal("the key outlived its connection")
	}
	srv2 := serveBroker(t, b, addr)
	defer srv2.Close()
	waitUntil(t, "the key is set again", func() bool { _, ok := getNow(b, "k"); return ok })

	c.Close()
	waitUntil(t, "the key is released", func() bool { _, ok := getNow(b, "k"); return !ok })
}

// TestDialFuncFollowsTheRegister: a client that resolves its server with
// Lookup waits, without a single backoff, for a key nobody has set yet, and
// after its server goes away it looks the key up again and reaches the
// server that replaced it.
func TestDialFuncFollowsTheRegister(t *testing.T) {
	reg := obs.NewRegistry()
	_, broker := startServer(t)
	serveAt := func() (*Broker, *Server, *Client) {
		inbox := NewBroker()
		s, err := Serve(inbox, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		holder := dialT(t, broker.Addr())
		holder.Hold("addr", func(net.Addr) ([]byte, error) { return []byte(s.Addr()), nil })
		return inbox, s, holder
	}
	c := DialFunc(func(ctx context.Context) (string, error) { return Lookup(ctx, broker.Addr(), "addr", true) })
	defer c.Close()
	c.SetMetrics(reg)
	pushed := make(chan error, 1)
	go func() { pushed <- c.LPush("q", []byte("1")) }()
	time.Sleep(20 * time.Millisecond) // the lookup waits at the broker
	inbox, s, holder := serveAt()
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if p, err := inbox.BRPop(context.Background(), "q"); err != nil || string(p) != "1" {
		t.Fatalf("first server got %q, %v", p, err)
	}
	if n := reg.Snapshot()["queue.reconnect_attempts"]; n != 0 {
		t.Fatalf("%d backoffs while waiting for the key, want 0", n)
	}

	s.Close()
	holder.Close()
	inbox.Close()
	waitRetired(t, c)
	inbox2, s2, holder2 := serveAt()
	defer func() { holder2.Close(); s2.Close(); inbox2.Close() }()
	if err := c.LPush("q", []byte("2")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if p, err := inbox2.BRPop(ctx, "q"); err != nil || string(p) != "2" {
		t.Fatalf("replacement server got %q, %v", p, err)
	}
}

// TestLookupEmptyValueNamesTheBroker: a key set to the empty value resolves
// to the broker that holds it, so a push lands in the broker's own list.
func TestLookupEmptyValueNamesTheBroker(t *testing.T) {
	b, srv := startServer(t)
	release := b.Set("addr", nil)
	defer release()
	if a, err := Lookup(context.Background(), srv.Addr(), "addr", false); err != nil || a != srv.Addr() {
		t.Fatalf("Lookup = %q, %v; want the broker's own %s", a, err, srv.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Lookup(ctx, srv.Addr(), "unset", true); err == nil || ctx.Err() == nil {
		t.Fatalf("Lookup of an unset key returned %v before its context ended", err)
	}
	if _, err := Lookup(context.Background(), srv.Addr(), "unset", false); err == nil {
		t.Fatal("Lookup without waiting found an unset key")
	}
}

// TestUnresolvedServerFailsTheRequest: a DialFunc client whose resolver
// finds no server fails the push at once, without a backoff, and the next
// push resolves again.
func TestUnresolvedServerFailsTheRequest(t *testing.T) {
	reg := obs.NewRegistry()
	b, srv := startServer(t)
	c := DialFunc(func(ctx context.Context) (string, error) { return Lookup(ctx, srv.Addr(), "addr", false) })
	defer c.Close()
	c.SetMetrics(reg)
	if err := c.LPush("q", []byte("0")); err == nil {
		t.Fatal("a push to an unregistered server succeeded")
	}
	if n := reg.Snapshot()["queue.reconnect_attempts"]; n != 0 {
		t.Fatalf("%d backoffs before failing, want 0", n)
	}
	release := b.Set("addr", nil)
	defer release()
	if err := c.LPush("q", []byte("1")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if p, err := b.BRPop(ctx, "q"); err != nil || string(p) != "1" {
		t.Fatalf("the broker's list got %q, %v", p, err)
	}
}

// TestClosedConnectionIsDroppedBeforeTheNextWrite: once the server's FIN
// has arrived, the client's reply reader has retired the connection, so the
// next push redials instead of vanishing into the dead socket.
func TestClosedConnectionIsDroppedBeforeTheNextWrite(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	srv := serveBroker(t, b, "127.0.0.1:0")
	addr := srv.Addr()
	c := dialT(t, addr)
	defer c.Close()
	for i, want := range []string{"one", "two"} {
		if i == 1 {
			srv.Close()
			waitRetired(t, c)
			srv2 := serveBroker(t, b, addr)
			defer srv2.Close()
		}
		if err := c.LPush("k", []byte(want)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		p, err := b.BRPop(ctx, "k")
		cancel()
		if err != nil || string(p) != want {
			t.Fatalf("popped %q, %v; want %q", p, err, want)
		}
	}
}

// waitRetired waits until c's reply reader has retired its request
// connection: a push before that can still go into the dead socket.
func waitRetired(t *testing.T, c *Client) {
	t.Helper()
	waitUntil(t, "the connection is retired", func() bool {
		c.state.Lock()
		defer c.state.Unlock()
		return c.link == nil
	})
}
