package realtime

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"dlion/internal/bufpool"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/queue"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// transportPairs builds one Transport per worker id for each of the two
// implementations, so a test can hold both to the same ownership rule.
func transportPairs(t *testing.T, n int) map[string][]Transport {
	t.Helper()
	inproc := queue.NewBroker()
	t.Cleanup(inproc.Close)
	served := queue.NewBroker()
	t.Cleanup(served.Close)
	srv, err := queue.Serve(served, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	out := map[string][]Transport{}
	for i := 0; i < n; i++ {
		bt := NewBrokerTransport(inproc, i, "")
		ct, err := NewClientTransport(srv.Addr(), i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bt.Close(); ct.Close() })
		out["inproc"] = append(out["inproc"], bt)
		out["tcp"] = append(out["tcp"], ct)
	}
	return out
}

// soakValue is the value every position of a soak frame must hold.
func soakValue(from, seq, i int) float32 { return float32(from*1000003 + seq*7919 + i) }

// TestFrameIntegrityBothTransports pushes gradient frames whose sizes
// straddle the free list's threshold through both transports, playing the
// node's part at each end: the sender encodes into a recycled buffer and
// gives it to Send; the receiver decodes, recycles the frame, verifies every
// value and releases the message. A transport that recycled a frame it had
// only passed on (the in-process broker carries the sender's very slice to
// the receiver) would let the next Encode scribble over a frame in flight:
// wrong values here, a report under -race.
func TestFrameIntegrityBothTransports(t *testing.T) {
	const senders, frames = 2, 120
	sizes := []int{100, 16<<10 - 8, 16 << 10, 40_000, 300_000} // values per frame; 16 K values = 64 KB
	for name, trs := range transportPairs(t, senders+1) {
		t.Run(name, func(t *testing.T) {
			recv := trs[senders]
			var wg sync.WaitGroup
			defer wg.Wait() // Send never blocks, so the senders always finish
			for from := 0; from < senders; from++ {
				wg.Add(1)
				go func(from int) {
					defer wg.Done()
					for seq := 0; seq < frames; seq++ {
						vals := make([]float32, sizes[(from+seq)%len(sizes)])
						for i := range vals {
							vals[i] = soakValue(from, seq, i)
						}
						m := &wire.Message{Type: wire.TypeGradient, From: int32(from), Iter: int64(seq),
							Selections: []*grad.Selection{{Var: "w", Total: len(vals), Dense: vals}}}
						if err := trs[from].Send(senders, wire.Encode(m)); err != nil {
							t.Errorf("sender %d: %v", from, err)
							return
						}
					}
				}(from)
			}
			next := make([]int, senders) // per-link FIFO: frames of one sender arrive in order
			for k := 0; k < senders*frames; k++ {
				frame, err := recv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				m, err := wire.Decode(frame)
				bufpool.Bytes.Put(frame)
				if err != nil {
					t.Fatalf("frame %d: %v", k, err)
				}
				from, seq := int(m.From), int(m.Iter)
				if seq != next[from] {
					t.Fatalf("sender %d: frame %d arrived, want %d", from, seq, next[from])
				}
				next[from]++
				for i, v := range m.Selections[0].Dense {
					if v != soakValue(from, seq, i) {
						t.Fatalf("sender %d frame %d: value %d corrupted", from, seq, i)
					}
				}
				m.Release()
			}
		})
	}
}

// trainDense runs two nodes exchanging dense f32 gradients in lock-step with
// ordered apply for a fixed number of iterations and returns each replica's
// weights plus the mean frame size. observe, if not nil, runs on node 0's
// event loop at every poll for completion.
func trainDense(t *testing.T, trs []Transport, iters int64, observe func(*core.Worker)) ([]map[string]*tensor.Tensor, int64) {
	t.Helper()
	dc := data.Config{Name: "frames", NumClasses: 3, Train: 120, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 33}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, len(trs), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.Config{Name: "dense", LearningRate: 0.05,
		NewSelector:  func() grad.Selector { return grad.Full{} },
		Batch:        core.BatchConfig{InitialLBS: 4},
		Sync:         core.SyncConfig{Mode: core.SyncFull},
		MaxIters:     iters,
		OrderedApply: true,
	}
	g, err := NewGroup(len(trs), func(i int) (Config, error) {
		return Config{ID: i, N: len(trs), System: sys,
			Spec: nn.CipherSpec(1, 8, 8, 3, 5), Shard: shards[i], Transport: trs[i]}, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget(20*time.Second))
	ran := make(chan struct{})
	go func() { defer close(ran); _ = g.Run(ctx) }()
	defer func() { cancel(); <-ran }()

	weights := make([]map[string]*tensor.Tensor, len(trs))
	var frameBytes int64
	want := int64(len(trs)-1) * iters
	for i := range trs {
		for done := false; !done; {
			err := ctx.Err() // a stopped group inspects directly: never an error
			if err == nil {
				err = g.Inspect(ctx, i, func(w *core.Worker) {
					if i == 0 && observe != nil {
						observe(w)
					}
					if done = w.Iter() == iters && w.Stats().MsgsRecvd == want; done {
						weights[i] = w.Model().Weights()
						frameBytes = w.Stats().BytesSent / w.Stats().MsgsSent
					}
				})
			}
			if err != nil {
				t.Fatalf("node %d never settled: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return weights, frameBytes
}

// TestPooledFramesTrainIdentically: with a model whose dense frame is large
// enough to be recycled at every hop, lock-step ordered training ends on
// bit-identical weights whether the frames crossed the in-process broker or
// the TCP one. A frame or a decoded gradient recycled while core still
// needed it would show as a divergence.
func TestPooledFramesTrainIdentically(t *testing.T) {
	const iters = 12
	var ref []map[string]*tensor.Tensor
	for name, trs := range transportPairs(t, 2) {
		weights, frameBytes := trainDense(t, trs, iters, nil)
		if frameBytes < 2*64<<10 {
			t.Fatalf("%s: frames of %d bytes are too small to be recycled", name, frameBytes)
		}
		if ref == nil {
			ref = weights
			continue
		}
		for i := range weights {
			for v, want := range ref[i] {
				got := weights[i][v]
				for k := range want.Data {
					if math.Float32bits(want.Data[k]) != math.Float32bits(got.Data[k]) {
						t.Fatalf("replica %d, %s[%d]: %v over one transport, %v over the other",
							i, v, k, want.Data[k], got.Data[k])
					}
				}
			}
		}
	}
}

// TestSteadyStateFrameAllocation: once the free list is warm, a frame's trip
// Select → Encode → Send → broker → Recv → Decode → Release allocates a small
// fraction of its size — headers and bookkeeping, never a frame-sized buffer.
// The sender's half is in the loop: Full's selections borrow the gradient
// tensor and the encoder copies it straight into a recycled frame, so a
// selector that copied first would show as one frame per trip.
func TestSteadyStateFrameAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random")
	}
	defer coldFreeLists()()
	vals := make([]float32, 340_000)
	for i := range vals {
		vals[i] = float32(i)
	}
	params := []*nn.Param{{Name: "w", W: tensor.New(1), G: tensor.FromSlice(vals, len(vals))}}
	message := func() *wire.Message {
		return &wire.Message{Type: wire.TypeGradient, From: 0, To: 1,
			Selections: grad.Full{}.Select(1, params, 0)}
	}
	frameLen := len(wire.Encode(message()))
	for name, trs := range transportPairs(t, 2) {
		trip := func() error {
			if err := trs[0].Send(1, wire.Encode(message())); err != nil {
				return err
			}
			frame, err := trs[1].Recv()
			if err != nil {
				return err
			}
			got, err := wire.Decode(frame)
			bufpool.Bytes.Put(frame)
			if err != nil {
				return err
			}
			if last := got.Selections[0].Dense[len(vals)-1]; last != vals[len(vals)-1] {
				return fmt.Errorf("last value %v", last)
			}
			got.Release()
			return nil
		}
		const warm, trips = 30, 100
		for i := 0; i < warm; i++ {
			if err := trip(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < trips; i++ {
			if err := trip(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		perFrame := (after.TotalAlloc - before.TotalAlloc) / trips
		if limit := uint64(frameLen / 20); perFrame > limit {
			t.Fatalf("%s: %d bytes allocated per %d-byte frame, want under %d",
				name, perFrame, frameLen, limit)
		}
		t.Logf("%s: %d bytes allocated per %d-byte frame", name, perFrame, frameLen)
	}
}

// coldFreeLists is the preamble of the steady-state allocation tests: start
// from empty free lists (two cycles: sync.Pool keeps a victim generation;
// shorter buffers left in a size class by earlier tests are each dropped
// for a fresh frame-sized allocation when they surface), then keep the
// collector from emptying them mid-measurement. Call the result to restore.
func coldFreeLists() (restore func()) {
	runtime.GC()
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// TestSteadyStateIterationAllocation: two nodes training in lock-step on
// dense f32 gradients allocate, per node and iteration, a small fraction of
// the frame they exchange: step, select, encode, send, receive, decode and
// apply all run on recycled or borrowed storage. (With a copying Full this
// read about 105 % of a frame.)
func TestSteadyStateIterationAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random")
	}
	defer coldFreeLists()()
	const warm, iters = 40, 240
	var start, end runtime.MemStats
	var startIter, endIter int64
	_, frameBytes := trainDense(t, transportPairs(t, 2)["tcp"], iters, func(w *core.Worker) {
		switch {
		case startIter == 0 && w.Iter() >= warm:
			startIter = w.Iter()
			runtime.ReadMemStats(&start)
		case w.Iter() == iters && endIter == 0:
			endIter = w.Iter()
			runtime.ReadMemStats(&end)
		}
	})
	if startIter == 0 || endIter-startIter < 100 {
		t.Fatalf("measured iterations %d..%d: too few to read a steady state from", startIter, endIter)
	}
	perIter := int64(end.TotalAlloc-start.TotalAlloc) / (endIter - startIter) / 2 // two nodes in this process
	if limit := frameBytes / 10; perIter > limit {
		t.Fatalf("%d bytes allocated per node-iteration exchanging %d-byte frames, want under %d",
			perIter, frameBytes, limit)
	}
	t.Logf("%d bytes allocated per node-iteration, %d-byte frames, iterations %d..%d",
		perIter, frameBytes, startIter, endIter)
}
