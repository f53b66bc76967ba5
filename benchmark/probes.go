package main

import (
	"time"

	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/queue"
	"dlion/internal/simclock"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// The probes time direct calls into one layer's public functions, on inputs
// the traced run captured or on the workload's own model and data. They run
// after the timed section, so they cost the end-to-end numbers nothing.

// probeK is how often a model-sized call is repeated; the reported figure is
// the median, so a GC pause or a stolen time slice does not set it. The tests
// lower it.
var probeK = 50

// timeCalls runs fn n times and returns the median duration in nanoseconds.
func timeCalls(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(d)
}

// probeModel times the tensor/nn layer and the batch draw the way the
// workload calls them: TrainStep at the workload's local batch size (lbs 0:
// the workload does not train), a batch-1 forward pass, a checkpoint restore.
func probeModel(m map[string]float64, spec nn.Spec, shard *data.Shard, lbs int) {
	model := spec.Build()
	if lbs > 0 {
		x, y := shard.NextBatch(lbs)
		model.TrainStep(x, y) // first call sizes the workspace
		m["nn.train_step_ms"] = timeCalls(probeK, func() { model.TrainStep(x, y) }) / 1e6
		m["data.next_batch_us"] = timeCalls(20*probeK, func() { shard.NextBatch(lbs) }) / 1e3
	}
	x1, _ := shard.NextBatch(1)
	model.Forward(x1)
	m["nn.forward_ms"] = timeCalls(4*probeK, func() { model.Forward(x1) }) / 1e6
	ckpt := model.Checkpoint()
	m["nn.checkpoint_restore_ms"] = timeCalls(probeK, func() {
		if err := model.Restore(ckpt); err != nil {
			panic(err) // a checkpoint the model just wrote
		}
	}) / 1e6
}

// probeWire decodes and re-encodes the gradient frames the tap captured.
func probeWire(m map[string]float64, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	var dec, enc []float64
	for _, f := range frames {
		t0 := time.Now()
		msg, err := wire.Decode(f)
		t1 := time.Now()
		if err != nil {
			continue // the node drops such a frame too; the checks count it
		}
		wire.Encode(msg)
		t2 := time.Now()
		dec = append(dec, float64(t1.Sub(t0).Nanoseconds()))
		enc = append(enc, float64(t2.Sub(t1).Nanoseconds()))
	}
	m["wire.decode_ms"] = median(dec) / 1e6
	m["wire.encode_ms"] = median(enc) / 1e6
}

// probeQueueRTT measures LPUSH + BRPOP of one frame-sized payload through
// the workload's own TCP broker on a spare client, after the nodes went
// quiet: the point-to-point latency row under the end-to-end number.
func probeQueueRTT(m map[string]float64, addr string, payloadBytes int) {
	c, err := queue.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	payload := make([]byte, payloadBytes)
	const key = "bench:rtt"
	ok := true
	rtt := timeCalls(probeK, func() {
		if err := c.LPush(key, payload); err != nil {
			ok = false
			return
		}
		if _, err := c.BRPop(key, time.Second); err != nil {
			ok = false
		}
	})
	if ok {
		m["queue.rtt_ms"] = rtt / 1e6
	}
}

// probeModelHash times the lineage digest the registry recomputes on every
// hot-swap.
func probeModelHash(m map[string]float64, model *nn.Model) {
	m["lineage.model_hash_ms"] = timeCalls(probeK, func() { lineage.ModelHash(model) }) / 1e6
}

// noop is a simclock.Handler that does nothing: with it the engine's own
// scheduling cost is all that is left.
type noop struct{}

func (noop) Fire() {}

// probeSimclock drives the DES engine alone: n no-op events spread over a
// virtual second, scheduled through AtHandler like message deliveries are.
func probeSimclock(m map[string]float64) {
	n := probeK * 20000
	rate := make([]float64, 5)
	for r := range rate {
		eng := simclock.New()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.AtHandler(float64(i%1000)/1000, noop{})
		}
		eng.RunAll()
		rate[r] = float64(n) / time.Since(t0).Seconds() / 1e6
	}
	m["simclock.noop_mevents_per_s"] = median(rate)
}

// batchOf copies one flattened sample into a (1, C, H, W) tensor.
func batchOf(spec nn.Spec, sample []float32) *tensor.Tensor {
	x := tensor.New(1, spec.Channels, spec.Height, spec.Width)
	copy(x.Data, sample)
	return x
}
