package queue

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlion/internal/bufpool"
)

// soakSizes straddle the free list's 64 KB threshold: frames below it are
// plain allocations, frames above it are recycled at every hop.
var soakSizes = []int{16, 4 << 10, 64<<10 - 1, 64 << 10, 64<<10 + 1, 200 << 10, 1 << 20}

// sealFrame fills p with a pattern derived from (producer, seq) and ends it
// with the CRC of everything before, so any byte a premature recycle
// overwrites is detected.
func sealFrame(p []byte, producer, seq int) {
	body := p[:len(p)-4]
	for i := range body {
		body[i] = byte(producer*131 + seq*31 + i)
	}
	binary.LittleEndian.PutUint32(p[len(p)-4:], crc32.ChecksumIEEE(body))
}

func frameIntact(p []byte) bool {
	return len(p) >= 4 &&
		binary.LittleEndian.Uint32(p[len(p)-4:]) == crc32.ChecksumIEEE(p[:len(p)-4])
}

// TestFrameIntegritySoakTCP drives the frame's whole TCP life under the
// ownership rule — producer fills a free-list buffer, LPUSHes and recycles
// it; the server reads into a free-list buffer, queues it, answers a BRPOP
// and recycles it; the consumer verifies its own free-list buffer and
// recycles it — with several producers and consumers so buffers change hands
// constantly. A hop that recycled a frame too early would hand a buffer to a
// writer while a reader still holds it: a checksum failure here, a report
// under -race.
func TestFrameIntegritySoakTCP(t *testing.T) {
	_, srv := startServer(t)

	const producers, consumers, perProducer = 3, 3, 60
	total := producers * perProducer
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for seq := 0; seq < perProducer; seq++ {
				frame := bufpool.Bytes.Get(soakSizes[(p+seq)%len(soakSizes)])
				sealFrame(frame, p, seq)
				err := c.LPush("soak", frame)
				bufpool.Bytes.Put(frame) // as ClientTransport.Send does
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	var got atomic.Int64
	for k := 0; k < consumers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for got.Load() < int64(total) {
				frame, err := c.BRPop("soak", 50*time.Millisecond)
				if errors.Is(err, ErrTimeout) {
					continue
				}
				if err != nil {
					t.Errorf("consumer: %v", err)
					return
				}
				if !frameIntact(frame) {
					t.Errorf("frame of %d bytes failed its checksum", len(frame))
				}
				got.Add(1)
				bufpool.Bytes.Put(frame) // as the node's receive pump does
			}
		}()
	}
	wg.Wait()
	if got.Load() != int64(total) {
		t.Fatalf("received %d of %d frames", got.Load(), total)
	}
}

// fakeServer accepts connections, reads one request from each and answers
// with reply. It counts the connections it served.
func fakeServer(t *testing.T, reply []byte) (addr string, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				if _, _, _, err := readRequest(bufio.NewReader(conn)); err != nil {
					return
				}
				conn.Write(reply)
				io.Copy(io.Discard, conn) // hold the conn open until the client gives up
			}()
		}
	}()
	return ln.Addr().String(), conns
}

// TestBRPopBoundsResponseLength: a response claiming a 4 GB payload must
// fail the read instead of sizing an allocation, and the client must treat
// it as a broken connection: it redials, one connection per failure, until
// it is closed.
func TestBRPopBoundsResponseLength(t *testing.T) {
	corrupt := []byte{0, 0xff, 0xff, 0xff, 0xff}
	if p, err := readReply(bufio.NewReader(bytes.NewReader(corrupt))); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("readReply = %d bytes, err %v; want a length-limit error", len(p), err)
	}

	addr, conns := fakeServer(t, corrupt)
	c := dialT(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.BRPop("k", time.Second)
		done <- err
	}()
	waitUntil(t, "three dials", func() bool { return conns.Load() >= 3 })
	c.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("BRPop against a corrupt server: %v, want ErrClosed once closed", err)
	}
}

// TestPopsDoNotPinFrames: a popped frame (or a served waiter) must not stay
// referenced from the slot it left in the list's backing array, or a
// consumed megabyte frame lives until the array is reallocated.
func TestPopsDoNotPinFrames(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.LPush("q", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	backing := b.lists["q"]
	b.mu.Unlock()
	pop(b, "q")
	if _, err := b.BRPop(context.Background(), "q"); err != nil {
		t.Fatal(err)
	}
	if backing[0] != nil || backing[1] != nil {
		t.Fatal("popped frames are still referenced from the list's backing array")
	}
	if backing[2] == nil {
		t.Fatal("the queued frame was cleared")
	}

	// Two blocked consumers, one push: the served waiter's slot is cleared.
	for i := 0; i < 2; i++ {
		go b.BRPop(context.Background(), "w")
	}
	var waiters []chan []byte
	for deadline := time.Now().Add(5 * time.Second); len(waiters) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("consumers never blocked")
		}
		time.Sleep(time.Millisecond)
		b.mu.Lock()
		waiters = b.waiters["w"]
		b.mu.Unlock()
	}
	if err := b.LPush("w", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	served, waiting := waiters[0], waiters[1]
	b.mu.Unlock()
	if served != nil || waiting == nil {
		t.Fatal("the served waiter is still referenced from the waiters' backing array")
	}
}
