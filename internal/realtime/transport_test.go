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

// TestHostedAndClientTransportsExchange: in one namespace, two workers
// hosted in a served broker and one external ClientTransport all reach each
// other: the external worker's lookup of a hosted worker names the broker,
// and a hosted worker's frame to the external one goes to its own server.
// Closing a hosted transport releases its register key.
func TestHostedAndClientTransportsExchange(t *testing.T) {
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
	trs := []Transport{NewHostedTransport(b, 0, ns, 2), NewHostedTransport(b, 1, ns, 2), ext}
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
		t.Error("a closed hosted transport left its register key")
	}
	trs[1].Close()
}
