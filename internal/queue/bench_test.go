package queue

import (
	"context"
	"testing"
	"time"

	"dlion/internal/bufpool"
)

func BenchmarkLPushRPop(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.LPush("q", payload)
		payload, _ = br.RPop("q") // ownership comes back with the pop
	}
}

func BenchmarkPublishFanout4(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	for i := 0; i < 4; i++ {
		s, _ := br.Subscribe("c", b.N+1)
		defer s.Cancel()
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish("c", payload)
	}
}

func BenchmarkBRPopHandoff(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	// The consumer only counts pops and never recycles, so pushing the one
	// slice again does not break the ownership rule's purpose.
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := br.BRPop(context.Background(), "q"); err != nil {
				return
			}
		}
	}()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.LPush("q", payload)
	}
	<-done
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.LPush("q", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.BRPop("q", time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerLoopback1MB is the frame's TCP life at gradient size: LPUSH
// of a 1 MB frame, the server queueing it, and BRPOP bringing it back, with
// every hop recycling as the transports do. -benchmem shows what a frame
// costs in allocation once the free list is warm.
func BenchmarkBrokerLoopback1MB(b *testing.B) {
	br := NewBroker()
	defer br.Close()
	srv, err := Serve(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const size = 1 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := bufpool.Bytes.Get(size)
		err := c.LPush("q", frame)
		bufpool.Bytes.Put(frame)
		if err != nil {
			b.Fatal(err)
		}
		got, err := c.BRPop("q", time.Second)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Bytes.Put(got)
	}
}
