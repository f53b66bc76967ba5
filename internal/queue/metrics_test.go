package queue

import (
	"context"
	"errors"
	"testing"
	"time"

	"dlion/internal/obs"
)

func TestBrokerMetrics(t *testing.T) {
	b := NewBroker()
	reg := obs.NewRegistry()
	b.SetMetrics(reg)

	b.LPush("k", []byte("a"))
	b.LPush("k", []byte("b"))
	if snap := reg.Snapshot(); snap["queue.pushed"] != 2 || snap["queue.list_depth"] != 2 {
		t.Fatalf("after pushes: %v", snap)
	}
	if _, ok := b.RPop("k"); !ok {
		t.Fatal("RPop failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := b.BRPop(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["queue.popped"] != 2 || snap["queue.list_depth"] != 0 {
		t.Fatalf("after pops: %v", snap)
	}
	if snap["queue.list_depth.max"] != 2 {
		t.Fatalf("depth high-water = %d, want 2", snap["queue.list_depth.max"])
	}

	// A hand-off to a blocked waiter counts as push+pop without touching depth.
	got := make(chan []byte, 1)
	go func() {
		p, _ := b.BRPop(context.Background(), "w")
		got <- p
	}()
	waitForWaiter(t, b, "w")
	b.LPush("w", []byte("x"))
	<-got
	snap = reg.Snapshot()
	if snap["queue.pushed"] != 3 || snap["queue.popped"] != 3 || snap["queue.list_depth"] != 0 {
		t.Fatalf("after hand-off: %v", snap)
	}

	// PUB/SUB delivery and drop-oldest accounting.
	sub, err := b.Subscribe("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	b.Publish("c", []byte("1"))
	b.Publish("c", []byte("2")) // buffer full: drops "1"
	snap = reg.Snapshot()
	if snap["queue.published"] != 2 || snap["queue.pub_dropped"] != 1 {
		t.Fatalf("pub accounting: %v", snap)
	}
}

// waitForWaiter blocks until a BRPop waiter is registered on key.
func waitForWaiter(t *testing.T, b *Broker, key string) {
	t.Helper()
	waitUntil(t, "a waiter registers", func() bool { return waiters(b, key) > 0 })
}

func TestReconnectAttemptsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	// No broker behind this address: every dial fails and backs off.
	c := dialT(t, deadAddr(t))
	c.SetMetrics(reg)
	done := make(chan error, 1)
	go func() { done <- c.LPush("k", []byte("x")) }()
	waitUntil(t, "two backoffs", func() bool { return reg.Snapshot()["queue.reconnect_attempts"] >= 2 })
	c.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("LPush against a dead broker: %v, want ErrClosed once closed", err)
	}
}
