package realtime

import (
	"math"
	"testing"
	"time"

	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/queue"
)

// idleNode builds a node that is never Run, so a test can play the event
// loop itself and see exactly what the Env puts on it.
func idleNode(t *testing.T) (*Node, *data.Shard) {
	t.Helper()
	b := queue.NewBroker()
	t.Cleanup(b.Close)
	dc := data.Config{Name: "idle", NumClasses: 3, Train: 120, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 8}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	// Two partitions with one seed: the node's shard and a twin whose cursor
	// the test advances by hand.
	var shards [2]*data.Shard
	for i := range shards {
		s, err := data.Partition(train, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s[0]
	}
	n, err := NewNode(Config{ID: 0, N: 1, System: realSystem(),
		Spec: nn.CipherSpec(1, 8, 8, 3, 5), Shard: shards[0], Transport: NewBrokerTransport(b, 0)})
	if err != nil {
		t.Fatal(err)
	}
	return n, shards[1]
}

// TestAfterZeroKeepsLoopOrder: After(0) is how an iteration's completion
// reaches the loop in real mode. It must queue behind what is already there
// (gradients that arrived during the step), not race it from a goroutine;
// and on a full loop it must neither block the caller — the loop goroutine,
// which is the only reader — nor lose fn.
func TestAfterZeroKeepsLoopOrder(t *testing.T) {
	n, _ := idleNode(t)
	env := realEnv{n}
	var order []int
	n.loop <- func() { order = append(order, 1) }
	n.loop <- func() { order = append(order, 2) }
	env.After(0, func() { order = append(order, 3) })
	if len(n.loop) != 3 {
		t.Fatalf("After(0) left %d events queued, want 3: it must enqueue before it returns", len(n.loop))
	}
	for len(n.loop) > 0 {
		(<-n.loop)()
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}

	for len(n.loop) < cap(n.loop) {
		n.loop <- func() {}
	}
	ran := make(chan struct{})
	returned := make(chan struct{})
	go func() {
		env.After(0, func() { close(ran) })
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(budget(2 * time.Second)):
		t.Fatal("After(0) blocked on a full loop")
	}
	deadline := time.After(budget(2 * time.Second))
	for done := false; !done; {
		select {
		case fn := <-n.loop:
			fn()
		case <-ran:
			done = true
		case <-deadline:
			t.Fatal("After(0) on a full loop never delivered fn")
		}
	}
}

// TestProfileComputeOneScratchReplica: the capacity probe trains a scratch
// replica that holds the live weights, leaves the live model's weights and
// gradient buffers bit-identical, builds that replica once per node, and
// draws exactly one batch per probed size from the node's shard.
func TestProfileComputeOneScratchReplica(t *testing.T) {
	n, twin := idleNode(t)
	env := realEnv{n}
	live := n.worker.Model()
	// Give the live model a gradient and weights that are not its He-init,
	// as mid-training, so a probe that touched either would show.
	x, y := n.cfg.Shard.NextBatch(8)
	twin.NextBatch(8)
	live.TrainStep(x, y)
	live.ApplySGD(0.05)
	type snap struct{ w, g []float32 }
	before := map[string]snap{}
	for _, p := range live.Params() {
		before[p.Name] = snap{append([]float32(nil), p.W.Data...), append([]float32(nil), p.G.Data...)}
	}

	batches := []int{4, 8, 16}
	var first *nn.Model
	for probe := 0; probe < 2; probe++ {
		px, py := env.ProfileCompute(0, batches)
		if len(px) != len(batches) || len(py) != len(batches) {
			t.Fatalf("probe %d: %d/%d points for %d batch sizes", probe, len(px), len(py), len(batches))
		}
		for i, b := range batches {
			if px[i] != float64(b) || !(py[i] > 0) {
				t.Fatalf("probe %d: point %d is (%v, %v)", probe, i, px[i], py[i])
			}
			twin.NextBatch(b)
		}
		if n.scratch == nil || n.scratch == live {
			t.Fatal("probe must run on a scratch replica of its own")
		}
		if first == nil {
			first = n.scratch
		} else if n.scratch != first {
			t.Fatal("second probe built a second replica")
		}
		for i, p := range n.scratch.Params() {
			if !sameBits(p.W.Data, live.Params()[i].W.Data) {
				t.Fatalf("probe %d: scratch %s does not hold the live weights", probe, p.Name)
			}
		}
	}
	for _, p := range live.Params() {
		if !sameBits(p.W.Data, before[p.Name].w) {
			t.Fatalf("probe changed live weights %s", p.Name)
		}
		if !sameBits(p.G.Data, before[p.Name].g) {
			t.Fatalf("probe changed live gradient %s", p.Name)
		}
	}
	// Same cursor: the next batch off the node's shard is the twin's.
	gx, gy := n.cfg.Shard.NextBatch(8)
	wx, wy := twin.NextBatch(8)
	if !sameBits(gx.Data, wx.Data) {
		t.Fatal("shard cursor moved by something other than one batch per probed size")
	}
	for i := range gy {
		if gy[i] != wy[i] {
			t.Fatal("shard cursor moved by something other than one batch per probed size")
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
