package realtime

import (
	"testing"

	"dlion/internal/bufpool"
	"dlion/internal/queue"
)

// BenchmarkClientTransport1MB is a dense gradient frame's real-mode life at
// the benchmark model's size (1.37 MB): Send from one ClientTransport,
// straight into the other's served list over loopback, and Recv there,
// with both ends recycling as a node does. The broker on the same loopback
// only holds the two addresses.
func BenchmarkClientTransport1MB(b *testing.B) {
	const size = 1_369_117
	br := queue.NewBroker()
	defer br.Close()
	srv, err := queue.Serve(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var trs [2]*ClientTransport
	for i := range trs {
		if trs[i], err = NewClientTransport(srv.Addr(), i); err != nil {
			b.Fatal(err)
		}
		defer trs[i].Close()
	}
	trip := func() {
		if err := trs[0].Send(1, bufpool.Bytes.Get(size)); err != nil {
			b.Fatal(err)
		}
		p, err := trs[1].Recv()
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Bytes.Put(p)
	}
	trip() // resolve the peer and warm the free list
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}
