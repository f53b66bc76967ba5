package testkit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/tensor"
)

// EquivalenceConfig describes one cross-mode workload: the same seeded
// Cipher training job, run for exactly Steps iterations per worker on
// either substrate. SyncFull with fixed batching makes the gradient
// *sequence* timing-independent — worker j's iteration k+1 always sees
// exactly rounds 1..k from every peer — so the two substrates may differ
// only in float32 apply order (and, for sparse exchange, in threshold
// flips that order-induced drift causes near the Max-N cutoff).
type EquivalenceConfig struct {
	N      int    // workers (>= 2)
	Steps  int64  // iterations per worker (the MaxIters budget)
	Seed   uint64 // data + partition seed; replicas init from Seed+1000
	Sparse bool   // Max-N (GQ) selection instead of dense Full exchange

	// Quant fixes the wire precision every worker sends at (grad.PrecF32,
	// the zero value, keeps the exchange unquantized). Quantization is
	// deterministic, so equivalence bounds hold the same way they do for
	// sparse selection: the dequantized image is identical on both
	// substrates, and only order-induced drift can flip individual codes.
	Quant grad.Precision

	// QuantMix, when non-nil (len N), gives each worker its own fixed wire
	// precision — the mixed-precision-peers interop workload. Overrides
	// Quant.
	QuantMix []grad.Precision

	// Ordered runs the workload under core.Config.OrderedApply: peer
	// gradients apply at the sync barrier in (round, worker-id) order
	// instead of arrival order. This removes the one freedom the substrates
	// have left — float32 apply order — so final weights are bit-identical
	// across sim and realtime, which is what the lineage audit replays
	// rely on.
	Ordered bool
}

// EquivalenceResult is one substrate's outcome: per-worker final weights
// (deep copies), iteration counts, and message counters.
type EquivalenceResult struct {
	Weights []map[string]*tensor.Tensor
	Iters   []int64
	Stats   []core.Stats
}

// system builds the shared core config: SyncFull, fixed batching, no DKT,
// no link budgets — the deterministic-math subset both substrates must
// agree on.
func (c EquivalenceConfig) system() core.Config {
	sel := func() grad.Selector { return grad.Full{} }
	name := "eq-dense"
	if c.Sparse {
		sel = func() grad.Selector { return grad.NewMaxN(60) }
		name = "eq-sparse"
	}
	switch c.Quant {
	case grad.PrecF16:
		name += "-f16"
	case grad.PrecI8:
		name += "-i8"
	}
	if c.QuantMix != nil {
		name += "-mixed"
	}
	if c.Ordered {
		name += "-ordered"
	}
	return core.Config{
		Name:         name,
		LearningRate: 0.05,
		NewSelector:  sel,
		Sync:         core.SyncConfig{Mode: core.SyncFull},
		Batch:        core.BatchConfig{InitialLBS: 8},
		MaxIters:     c.Steps,
		Quant:        core.QuantConfig{Precision: c.Quant},
		OrderedApply: c.Ordered,
	}
}

// workerSystem is worker id's final core config: the shared system with the
// per-worker precision override applied.
func (c EquivalenceConfig) workerSystem(id int) core.Config {
	sys := c.system()
	if c.QuantMix != nil {
		sys.Quant.Precision = c.QuantMix[id]
	}
	return sys
}

func (c EquivalenceConfig) dataConfig() data.Config {
	return data.Config{Name: "eq", NumClasses: 3, Train: 240, Test: 60,
		Channels: 1, Height: 8, Width: 8, Noise: 0.35, Jitter: 0, Bumps: 3,
		Seed: c.Seed}
}

func (c EquivalenceConfig) spec() nn.Spec {
	// Mirrors cluster.Run's replica-init convention: spec seed = Seed+1000.
	return nn.CipherSpec(1, 8, 8, 3, c.Seed+1000)
}

func (c EquivalenceConfig) validate() error {
	if c.N < 2 || c.Steps < 1 {
		return fmt.Errorf("testkit: equivalence needs N >= 2 and Steps >= 1, got N=%d Steps=%d",
			c.N, c.Steps)
	}
	if c.QuantMix != nil && len(c.QuantMix) != c.N {
		return fmt.Errorf("testkit: QuantMix has %d entries for %d workers", len(c.QuantMix), c.N)
	}
	return nil
}

// RunSim executes the workload on the discrete-event simulator via
// cluster.Run and returns the final weights. Kernel execution is forced
// into deterministic-reduction mode for the duration of the run.
func RunSim(c EquivalenceConfig) (*EquivalenceResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	// Round time ≈ overhead + perSample·LBS/capacity + transfer; with the
	// constants below one SyncFull round is well under a virtual second,
	// so the horizon leaves generous slack for Steps rounds.
	horizon := float64(c.Steps)*2 + 20
	computes := make([]*simcompute.Compute, c.N)
	for i := range computes {
		computes[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	clusterCfg := cluster.Config{
		System:     c.system(),
		Model:      nn.CipherSpec(1, 8, 8, 3, 0), // seed overwritten to Seed+1000 by cluster.Run
		Data:       c.dataConfig(),
		N:          c.N,
		Computes:   computes,
		Network:    simnet.Uniform(c.N, simcompute.Constant(200), 0.001),
		Horizon:    horizon,
		EvalPeriod: horizon, // evaluation is read-only; keep it out of the way
		Seed:       c.Seed,
	}
	if c.QuantMix != nil {
		clusterCfg.PerWorker = func(id int, wc core.Config) core.Config {
			wc.Quant.Precision = c.QuantMix[id]
			return wc
		}
	}
	res, err := cluster.Run(clusterCfg)
	if err != nil {
		return nil, err
	}
	out := &EquivalenceResult{Iters: res.Iters, Stats: res.Stats}
	for i, m := range res.Models {
		if res.Iters[i] != c.Steps {
			return nil, fmt.Errorf("testkit: sim worker %d finished %d/%d iterations (horizon too short?)",
				i, res.Iters[i], c.Steps)
		}
		out.Weights = append(out.Weights, m.Weights())
	}
	return out, nil
}

// RunRealtime executes the same workload over wall time: one realtime.Node
// per worker, all connected through an in-process broker. It mirrors
// cluster.Run's setup exactly — same data config, same Partition seed,
// same replica-init seed — then polls each node (on its event loop, via
// Inspect) until the iteration budget is spent and every peer's final
// gradients have landed, and snapshots the weights before shutdown.
func RunRealtime(ctx context.Context, c EquivalenceConfig) (*EquivalenceResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	train, _, err := data.Generate(c.dataConfig())
	if err != nil {
		return nil, err
	}
	shards, err := data.Partition(train, c.N, c.Seed)
	if err != nil {
		return nil, err
	}

	b := queue.NewBroker()
	defer b.Close()
	nodes := make([]*realtime.Node, c.N)
	for i := range nodes {
		nodes[i], err = realtime.NewNode(realtime.Config{
			ID: i, N: c.N, System: c.workerSystem(i), Spec: c.spec(),
			Shard: shards[i], Transport: realtime.NewBrokerTransport(b, i),
		})
		if err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	runErr := make(chan error, c.N)
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *realtime.Node) {
			defer wg.Done()
			if err := nd.Run(runCtx); err != nil {
				runErr <- err
			}
		}(nd)
	}

	// A node is settled when it spent its own budget AND heard every
	// peer's gradient for every round — one TypeGradient per peer per
	// iteration is the only traffic in this configuration, so the count
	// is exact: (N-1)·Steps.
	wantMsgs := int64(c.N-1) * c.Steps
	settled := func(nd *realtime.Node) (bool, error) {
		var done bool
		err := nd.Inspect(ctx, func(w *core.Worker) {
			done = w.Iter() == c.Steps && w.Stats().MsgsRecvd == wantMsgs
		})
		return done, err
	}
	for _, nd := range nodes {
		for {
			done, err := settled(nd)
			if err != nil {
				return nil, fmt.Errorf("testkit: realtime poll: %w", err)
			}
			if done {
				break
			}
			select {
			case err := <-runErr:
				return nil, fmt.Errorf("testkit: realtime node: %w", err)
			case <-ctx.Done():
				return nil, fmt.Errorf("testkit: realtime run: %w", ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// Everything settled: snapshot on each node's event loop, then stop.
	out := &EquivalenceResult{
		Weights: make([]map[string]*tensor.Tensor, c.N),
		Iters:   make([]int64, c.N),
		Stats:   make([]core.Stats, c.N),
	}
	for i, nd := range nodes {
		i := i
		err := nd.Inspect(ctx, func(w *core.Worker) {
			out.Weights[i] = w.Model().Weights()
			out.Iters[i] = w.Iter()
			out.Stats[i] = w.Stats()
		})
		if err != nil {
			return nil, fmt.Errorf("testkit: realtime snapshot: %w", err)
		}
	}
	cancel()
	wg.Wait()
	return out, nil
}
