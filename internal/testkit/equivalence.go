package testkit

import (
	"context"
	"fmt"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/obs"
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
// exactly rounds 1..k from every peer — and, with no leave, the workload
// runs under core.Config.OrderedApply: peer gradients apply at the sync
// barrier in (round, worker-id) order instead of arrival order. That removes
// the substrates' one remaining freedom, float32 apply order, so the final
// weights are bit-identical across sim and realtime — what the equivalence
// tests and the lineage audit replays compare.
type EquivalenceConfig struct {
	N      int    // workers (>= 2)
	Steps  int64  // iterations per worker (the MaxIters budget)
	Seed   uint64 // data + partition seed; replicas init from Seed+1000
	Sparse bool   // Max-N (GQ) selection instead of dense Full exchange

	// Quant fixes the wire precision every worker sends at (grad.PrecF32,
	// the zero value, keeps the exchange unquantized). Quantization is a
	// deterministic function of the gradient, so it keeps the weights
	// bit-identical across substrates the same way sparse selection does.
	Quant grad.Precision

	// QuantMix, when non-nil (len N), gives each worker its own fixed wire
	// precision — the mixed-precision-peers interop workload. Overrides
	// Quant.
	QuantMix []grad.Precision

	// LeaveAfter > 0 makes worker Leaver depart gracefully after completing
	// exactly LeaveAfter iterations — its final gradient broadcast included
	// — on both substrates (core Membership.LeaveAfterIters, the step-exact
	// trigger: a time-scheduled leave would land on a substrate-dependent
	// iteration). That pins the leave side bit-for-bit: iteration count,
	// gradient fan-out, terminal state. Ordered apply excludes elastic
	// membership (core.Config.Validate), so a leave runs unordered and the
	// survivors' side is verified structurally (CheckChurn) rather than by
	// weight comparison: the tombstone's arrival iteration is
	// timing-dependent, so the divisor under which late pre-leave gradients
	// apply may differ between substrates — a real property of asynchronous
	// membership, not a bug the gate should reject.
	Leaver     int
	LeaveAfter int64
}

// EquivalenceResult is one substrate's outcome, per worker: final weights
// (deep copies), iteration counts, message counters, membership state, epoch
// log and final roster. FifoDrops counts the frames realtime shed from its
// send FIFOs; every workload must drop none.
type EquivalenceResult struct {
	Weights    []map[string]*tensor.Tensor
	Iters      []int64
	Stats      []core.Stats
	States     []core.MemberState
	Membership [][]core.EpochChange
	Rosters    [][]int
	FifoDrops  int64
}

// leaves reports whether worker id is the one that departs mid-run.
func (c EquivalenceConfig) leaves(id int) bool { return c.LeaveAfter > 0 && id == c.Leaver }

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
	ordered := c.LeaveAfter == 0
	if ordered {
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
		OrderedApply: ordered,
	}
}

// workerSystem is worker id's final core config: the shared system with the
// per-worker precision override and leave point applied.
func (c EquivalenceConfig) workerSystem(id int) core.Config {
	sys := c.system()
	if c.QuantMix != nil {
		sys.Quant.Precision = c.QuantMix[id]
	}
	if c.leaves(id) {
		sys.Membership.LeaveAfterIters = c.LeaveAfter
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
	switch {
	case c.LeaveAfter == 0 && c.Leaver != 0:
		return fmt.Errorf("testkit: leaver %d without a leave point", c.Leaver)
	case c.LeaveAfter == 0:
		return nil
	case c.N < 3:
		return fmt.Errorf("testkit: a leave needs N >= 3 so survivors still exchange, got N=%d", c.N)
	case c.Leaver < 0 || c.Leaver >= c.N:
		return fmt.Errorf("testkit: leaver %d outside [0,%d)", c.Leaver, c.N)
	case c.LeaveAfter < 1 || c.LeaveAfter >= c.Steps:
		return fmt.Errorf("testkit: leave point %d outside [1,%d)", c.LeaveAfter, c.Steps)
	}
	return nil
}

// RunSim executes the workload on the discrete-event simulator via
// cluster.Run and returns every worker's final state.
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
	res, err := cluster.Run(cluster.Config{
		System:     c.system(),
		PerWorker:  func(id int, _ core.Config) core.Config { return c.workerSystem(id) },
		Model:      nn.CipherSpec(1, 8, 8, 3, 0), // seed overwritten to Seed+1000 by cluster.Run
		Data:       c.dataConfig(),
		N:          c.N,
		Computes:   computes,
		Network:    simnet.Uniform(c.N, simcompute.Constant(200), 0.001),
		Horizon:    horizon,
		EvalPeriod: horizon, // evaluation is read-only; keep it out of the way
		Seed:       c.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &EquivalenceResult{Iters: res.Iters, Stats: res.Stats, States: res.States,
		Membership: res.Membership, Rosters: res.Rosters}
	for i, m := range res.Models {
		if !c.leaves(i) && res.Iters[i] != c.Steps {
			return nil, fmt.Errorf("testkit: sim worker %d finished %d/%d iterations (horizon too short?)",
				i, res.Iters[i], c.Steps)
		}
		out.Weights = append(out.Weights, m.Weights())
	}
	return out, nil
}

// RunRealtime executes the same workload over wall time: one realtime.Group
// of N nodes, with no restarts, over a loopback TCP broker (queue.Serve +
// ClientTransport), the production message path. It mirrors cluster.Run's
// setup exactly — same data config, Partition seed and replica-init seed —
// polls each node on its event loop until the workload has settled, stops
// the group and snapshots every worker.
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
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	g, err := realtime.NewGroup(c.N, func(i int) (realtime.Config, error) {
		tr, err := realtime.NewClientTransport(srv.Addr(), i)
		return realtime.Config{ID: i, N: c.N, System: c.workerSystem(i), Spec: c.spec(),
			Shard: shards[i], Transport: tr, Metrics: reg}, err
	}, 0)
	if err != nil {
		return nil, err
	}
	// Every exit stops the group, which closes the transports: until then each
	// receive pump stays parked in Client.BRPop, redialling the server.
	runCtx, stop := context.WithCancel(ctx)
	var runErr error
	ran := make(chan struct{})
	go func() { runErr = g.Run(runCtx); close(ran) }()
	defer func() { stop(); <-ran }()

	// Settled: the leaver has left and every other worker spent its budget.
	// Without a leave a worker must also have heard every peer's gradient
	// for every round — one TypeGradient per peer per iteration is the only
	// traffic then, so the count is exact: (N-1)·Steps.
	wantMsgs := int64(c.N-1) * c.Steps
	settled := func(i int, w *core.Worker) bool {
		switch {
		case c.leaves(i):
			return w.State() == core.StateLeft
		case c.LeaveAfter > 0:
			return w.Iter() == c.Steps
		}
		return w.Iter() == c.Steps && w.Stats().MsgsRecvd == wantMsgs
	}
	for i := 0; i < c.N; i++ {
		for {
			var done bool
			if err := g.Inspect(ctx, i, func(w *core.Worker) { done = settled(i, w) }); err != nil {
				return nil, fmt.Errorf("testkit: realtime poll: %w", err)
			}
			if done {
				break
			}
			select {
			case <-ran:
				return nil, fmt.Errorf("testkit: realtime group stopped: %v", runErr)
			case <-ctx.Done():
				return nil, fmt.Errorf("testkit: realtime run: %w", ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// Everything settled: stop the group, then snapshot its quiescent workers.
	stop()
	<-ran
	out := &EquivalenceResult{
		Weights:    make([]map[string]*tensor.Tensor, c.N),
		Iters:      make([]int64, c.N),
		Stats:      make([]core.Stats, c.N),
		States:     make([]core.MemberState, c.N),
		Membership: make([][]core.EpochChange, c.N),
		Rosters:    make([][]int, c.N),
		FifoDrops:  reg.Counter("realtime.fifo_drops").Load(),
	}
	for i := 0; i < c.N; i++ {
		g.Inspect(ctx, i, func(w *core.Worker) {
			out.Weights[i] = w.Model().Weights()
			out.Iters[i] = w.Iter()
			out.Stats[i] = w.Stats()
			out.States[i] = w.State()
			out.Membership[i] = w.MembershipLog()
			out.Rosters[i] = w.Members()
		})
	}
	return out, nil
}

// CheckRenormalization verifies the exact gradient fan-out invariant over
// one worker's membership log: between consecutive epoch entries — and
// from the last entry to the end of the run — the worker sent exactly
// ΔIter·(Size-1) gradient messages, Size being the roster the earlier
// entry established. Holds whenever the live-peer set equals the roster
// (no liveness expiries during the run).
func CheckRenormalization(log []core.EpochChange, finalIters, finalGradMsgs int64) error {
	if len(log) == 0 {
		return fmt.Errorf("testkit: empty membership log")
	}
	check := func(prev core.EpochChange, iters, grads int64, upto string) error {
		want := prev.GradMsgsSent + (iters-prev.Iter)*int64(prev.Size-1)
		if grads != want {
			return fmt.Errorf("testkit: epoch %d(%s)→%s: %d gradient msgs, want %d (size %d, iters %d→%d)",
				prev.Epoch, prev.Reason, upto, grads, want, prev.Size, prev.Iter, iters)
		}
		return nil
	}
	for i := 1; i < len(log); i++ {
		if err := check(log[i-1], log[i].Iter, log[i].GradMsgsSent, log[i].Reason); err != nil {
			return err
		}
	}
	return check(log[len(log)-1], finalIters, finalGradMsgs, "end")
}

// CheckChurn validates one substrate's run of a workload with a leave
// against the step-exact churn contract: the leaver departed at exactly the
// configured iteration with a full gradient fan-out behind it, every
// survivor spent its whole budget on the renormalized roster, and the
// fan-out invariant holds on every worker's epoch log.
func CheckChurn(c EquivalenceConfig, r *EquivalenceResult) error {
	if r.States[c.Leaver] != core.StateLeft {
		return fmt.Errorf("testkit: leaver state %v, want left", r.States[c.Leaver])
	}
	if r.Iters[c.Leaver] != c.LeaveAfter {
		return fmt.Errorf("testkit: leaver completed %d iterations, want exactly %d",
			r.Iters[c.Leaver], c.LeaveAfter)
	}
	if want := c.LeaveAfter * int64(c.N-1); r.Stats[c.Leaver].GradMsgsSent != want {
		return fmt.Errorf("testkit: leaver sent %d gradient msgs, want exactly %d",
			r.Stats[c.Leaver].GradMsgsSent, want)
	}
	for i := 0; i < c.N; i++ {
		if i == c.Leaver {
			continue
		}
		if r.States[i] != core.StateActive {
			return fmt.Errorf("testkit: survivor %d state %v, want active", i, r.States[i])
		}
		if r.Iters[i] != c.Steps {
			return fmt.Errorf("testkit: survivor %d completed %d/%d iterations",
				i, r.Iters[i], c.Steps)
		}
		if len(r.Rosters[i]) != c.N-1 {
			return fmt.Errorf("testkit: survivor %d roster %v still has %d members, want %d",
				i, r.Rosters[i], len(r.Rosters[i]), c.N-1)
		}
		last := r.Membership[i][len(r.Membership[i])-1]
		if last.Epoch != 1 || last.Reason != "leave" {
			return fmt.Errorf("testkit: survivor %d final epoch entry %+v, want epoch 1 via leave", i, last)
		}
	}
	for i := 0; i < c.N; i++ {
		if err := CheckRenormalization(r.Membership[i], r.Iters[i], r.Stats[i].GradMsgsSent); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}
