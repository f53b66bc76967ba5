package realtime

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"dlion/internal/queue"
)

// TestClientTransportCloseReleasesEverything: two transports that have
// exchanged frames, closed, leave no goroutine behind, nothing listening on
// the addresses they served on, and no address in the broker's register.
func TestClientTransportCloseReleasesEverything(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := runtime.NumGoroutine()

	trs := make([]*ClientTransport, 2)
	for i := range trs {
		if trs[i], err = NewClientTransport(srv.Addr(), i); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range trs {
		if err := tr.Send(1-i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range trs {
		if p, err := tr.Recv(); err != nil || p[0] != byte(1-i) {
			t.Fatalf("worker %d received %v, %v", i, p, err)
		}
	}
	addrs := []string{addrOf(t, b, 0), addrOf(t, b, 1)}
	for _, tr := range trs {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for i, addr := range addrs {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Errorf("worker %d's %s still accepts connections after Close", i, addr)
		}
	}
	key := func(i int) string { return queue.Namespace("").AddrKey(i) }
	for deadline := time.Now().Add(budget(5 * time.Second)); ; time.Sleep(time.Millisecond) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // look, do not wait
		_, err0 := b.Get(ctx, key(0))
		_, err1 := b.Get(ctx, key(1))
		if err0 != nil && err1 != nil && runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after Close: address errors %v, %v (want both unset); %d goroutines, %d before:\n%s",
				err0, err1, runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestBrokerAndClientTransportsExchange: in one namespace, two workers
// whose lists live in a served broker and one external ClientTransport all
// reach each other: the external worker's lookup of a broker-held worker
// names the broker, a broker-held worker's frame to the other goes into the
// broker's list in process, and one to the external worker goes to its own
// server. Closing a BrokerTransport releases its register key.
func TestBrokerAndClientTransportsExchange(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ns := queue.JobNamespace("mixed")
	ext, err := NewClientTransportNS(srv.Addr(), 2, ns)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	trs := []Transport{NewBrokerTransport(b, 0, ns), NewBrokerTransport(b, 1, ns), ext}
	for from, tr := range trs {
		for to := range trs {
			if to != from {
				if err := tr.Send(to, []byte{byte(from)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for to, tr := range trs {
		var got [3]bool
		for k := 0; k < 2; k++ {
			p, err := tr.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got[p[0]] = true
		}
		for from := range trs {
			if from != to && !got[from] {
				t.Errorf("worker %d never received worker %d's frame", to, from)
			}
		}
	}
	trs[0].Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // look, do not wait
	if _, err := b.Get(ctx, ns.AddrKey(0)); err == nil {
		t.Error("a closed BrokerTransport left its register key")
	}
	trs[1].Close()
}

// TestSendWaitsForTheReceiverToRegister: an in-process send to a worker
// whose transport does not exist yet waits for it, and is delivered to its
// list once it is built.
func TestSendWaitsForTheReceiverToRegister(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	tx := NewBrokerTransport(b, 0, "")
	defer tx.Close()
	sent := make(chan error, 1)
	go func() { sent <- tx.Send(1, []byte("hello")) }()
	select {
	case err := <-sent:
		t.Fatalf("Send returned %v before worker 1 registered", err)
	case <-time.After(20 * time.Millisecond):
	}
	rx := NewBrokerTransport(b, 1, "")
	defer rx.Close()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if p, err := rx.Recv(); err != nil || string(p) != "hello" {
		t.Fatalf("worker 1 received %q, %v", p, err)
	}
}

// TestCloseEndsAWaitingSend: closing a transport ends its send to a worker
// that never registers, with an error, and leaves no goroutine behind.
func TestCloseEndsAWaitingSend(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	before := runtime.NumGoroutine()
	tx := NewBrokerTransport(b, 0, "")
	sent := make(chan error, 1)
	go func() { sent <- tx.Send(1, []byte("hello")) }()
	time.Sleep(budget(20 * time.Millisecond)) // the send waits in its lookup
	tx.Close()
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("a send to an unregistered worker succeeded after Close")
		}
	case <-time.After(budget(5 * time.Second)):
		t.Fatal("Close left the send waiting")
	}
	for deadline := time.Now().Add(budget(5 * time.Second)); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
