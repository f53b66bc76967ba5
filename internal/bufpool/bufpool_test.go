package bufpool

import (
	"sync"
	"testing"
)

// sameArray reports whether two slices share a backing array.
func sameArray(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

func TestGetPutByClass(t *testing.T) {
	var p Pool[byte]

	// Below the threshold and above the limit: plain allocations, never kept.
	small := p.Get(minBytes - 1)
	if len(small) != minBytes-1 || p.Recyclable(small) {
		t.Fatalf("sub-threshold buffer: len %d, recyclable %v", len(small), p.Recyclable(small))
	}
	p.Put(small)
	p.Put(nil)
	if huge := make([]byte, maxBytes+1); p.Recyclable(huge) {
		t.Fatal("a buffer above the frame limit must not be kept")
	}

	// Buffers are allocated exactly and filed by capacity, not length. A
	// recycled one serves an equal or smaller request of its class at the
	// requested length. (sync.Pool may drop a Put — it does so at random
	// under -race — so reuse is asserted over a few attempts.)
	const n = 100 << 10
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		a := p.Get(n)
		if len(a) != n || cap(a) != n {
			t.Fatalf("Get(%d) = len %d cap %d; buffers are allocated exactly", n, len(a), cap(a))
		}
		p.Put(a[:10])
		b := p.Get(n - 5)
		if len(b) != n-5 {
			t.Fatalf("Get(%d) returned %d bytes", n-5, len(b))
		}
		reused = sameArray(a, b)
	}
	if !reused {
		t.Fatal("a same-class request never reused the recycled buffer")
	}

	// One that is too short, or of another class, is never handed out.
	for try := 0; try < 20; try++ {
		var q Pool[byte]
		a := q.Get(n)
		q.Put(a)
		if c := q.Get(n + 1); len(c) != n+1 || sameArray(a, c) {
			t.Fatal("a longer request was served from a shorter buffer")
		}
		q.Put(a)
		if d := q.Get(2 * n); len(d) != 2*n || sameArray(a, d) {
			t.Fatal("a request of the next class was served from this one")
		}
	}
}

func TestElementSizeCountsTowardsThreshold(t *testing.T) {
	var p Pool[float32]
	if s := p.Get(minBytes/4 - 1); p.Recyclable(s) {
		t.Fatal("a float32 buffer one element short of 64 KB was kept")
	}
	if s := p.Get(minBytes / 4); !p.Recyclable(s) {
		t.Fatal("a 64 KB float32 buffer was not kept")
	}
}

// TestConcurrentOwnersNeverShare: each goroutine owns what Get returned
// until it Puts it, so concurrent owners must never see each other's writes.
func TestConcurrentOwnersNeverShare(t *testing.T) {
	var p Pool[byte]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Get(minBytes + g*1000 + i)
				for k := range s {
					s[k] = byte(g)
				}
				for k := range s {
					if s[k] != byte(g) {
						t.Errorf("goroutine %d: buffer written by another owner", g)
						return
					}
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
