package testkit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
)

// Churn equivalence: the same seeded SyncFull workload with one worker
// departing mid-run, executed on the simulator and over a live TCP broker.
//
// A time-scheduled leave lands on a substrate-dependent iteration, so the
// harness uses the step-exact trigger instead (fault.Leave.AfterIters /
// core Membership.LeaveAfterIters): the leaver departs after completing
// exactly LeaveAfter iterations — its final gradient broadcast included —
// on both substrates. That pins the leave side bit-for-bit: iteration
// count, gradient fan-out, terminal state. The survivors' side is verified
// structurally (iteration budget, final roster, epoch count, and the exact
// renormalization invariant within each substrate) rather than by weight
// comparison: the tombstone's arrival iteration is timing-dependent, so
// the divisor under which late pre-leave gradients apply may differ
// between substrates — a real property of asynchronous membership, not a
// bug the gate should reject.

// ChurnConfig describes one cross-mode churn workload.
type ChurnConfig struct {
	N          int    // workers (>= 3, so survivors still exchange)
	Steps      int64  // survivor iteration budget (MaxIters)
	Leaver     int    // id of the departing worker
	LeaveAfter int64  // leaver departs after exactly this many iterations
	Seed       uint64 // data + partition seed; replicas init from Seed+1000
}

func (c ChurnConfig) validate() error {
	if c.N < 3 || c.Steps < 1 {
		return fmt.Errorf("testkit: churn needs N >= 3 and Steps >= 1, got N=%d Steps=%d",
			c.N, c.Steps)
	}
	if c.Leaver < 0 || c.Leaver >= c.N {
		return fmt.Errorf("testkit: churn leaver %d outside [0,%d)", c.Leaver, c.N)
	}
	if c.LeaveAfter < 1 || c.LeaveAfter >= c.Steps {
		return fmt.Errorf("testkit: churn leave point %d outside [1,%d)", c.LeaveAfter, c.Steps)
	}
	return nil
}

func (c ChurnConfig) equivalence() EquivalenceConfig {
	return EquivalenceConfig{N: c.N, Steps: c.Steps, Seed: c.Seed}
}

// ChurnResult is one substrate's outcome.
type ChurnResult struct {
	Iters      []int64
	Stats      []core.Stats
	States     []core.MemberState
	Membership [][]core.EpochChange
	Rosters    [][]int
	FifoDrops  int64 // realtime only: frames shed from send FIFOs (must be 0)
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

// CheckChurn validates one substrate's run against the step-exact churn
// contract: the leaver departed at exactly the configured iteration with a
// full gradient fan-out behind it, every survivor spent its whole budget
// on the renormalized roster, and the fan-out invariant holds on every
// worker's epoch log.
func CheckChurn(c ChurnConfig, r *ChurnResult) error {
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

// RunChurnSim executes the churn workload on the discrete-event simulator.
func RunChurnSim(c ChurnConfig) (*ChurnResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	eq := c.equivalence()
	horizon := float64(c.Steps)*2 + 20
	computes := make([]*simcompute.Compute, c.N)
	for i := range computes {
		computes[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	res, err := cluster.Run(cluster.Config{
		System:     eq.system(),
		Model:      nn.CipherSpec(1, 8, 8, 3, 0), // seed overwritten to Seed+1000 by cluster.Run
		Data:       eq.dataConfig(),
		N:          c.N,
		Computes:   computes,
		Network:    simnet.Uniform(c.N, simcompute.Constant(200), 0.001),
		Horizon:    horizon,
		EvalPeriod: horizon, // evaluation is read-only; keep it out of the way
		Seed:       c.Seed,
		Faults: &fault.Schedule{
			Leaves: []fault.Leave{{Worker: c.Leaver, AfterIters: c.LeaveAfter}},
		},
	})
	if err != nil {
		return nil, err
	}
	return &ChurnResult{Iters: res.Iters, Stats: res.Stats, States: res.States,
		Membership: res.Membership, Rosters: res.Rosters}, nil
}

// RunChurnRealtime executes the same workload against a live TCP broker
// (queue.Serve + ClientTransport), the full production message path. It
// additionally reports the send-FIFO shed count: a graceful leave must
// drop zero in-flight frames, and under SyncFull the survivors can only
// finish their budget if the tombstone and every pre-leave gradient
// actually arrived.
func RunChurnRealtime(ctx context.Context, c ChurnConfig) (*ChurnResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	eq := c.equivalence()
	train, _, err := data.Generate(eq.dataConfig())
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
	transports := make([]*realtime.ClientTransport, c.N)
	nodes := make([]*realtime.Node, c.N)
	for i := range nodes {
		transports[i], err = realtime.NewClientTransport(srv.Addr(), i)
		if err != nil {
			return nil, err
		}
		sys := eq.system()
		if i == c.Leaver {
			sys.Membership.LeaveAfterIters = c.LeaveAfter
		}
		nodes[i], err = realtime.NewNode(realtime.Config{
			ID: i, N: c.N, System: sys, Spec: eq.spec(),
			Shard: shards[i], Transport: transports[i], Metrics: reg,
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

	// Settled: the leaver has left, every survivor spent its budget.
	settled := func(i int, nd *realtime.Node) (bool, error) {
		var done bool
		err := nd.Inspect(ctx, func(w *core.Worker) {
			if i == c.Leaver {
				done = w.State() == core.StateLeft
			} else {
				done = w.Iter() == c.Steps
			}
		})
		return done, err
	}
	for i, nd := range nodes {
		for {
			done, err := settled(i, nd)
			if err != nil {
				return nil, fmt.Errorf("testkit: churn realtime poll: %w", err)
			}
			if done {
				break
			}
			select {
			case err := <-runErr:
				return nil, fmt.Errorf("testkit: churn realtime node: %w", err)
			case <-ctx.Done():
				return nil, fmt.Errorf("testkit: churn realtime run: %w", ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	out := &ChurnResult{
		Iters:      make([]int64, c.N),
		Stats:      make([]core.Stats, c.N),
		States:     make([]core.MemberState, c.N),
		Membership: make([][]core.EpochChange, c.N),
		Rosters:    make([][]int, c.N),
	}
	for i, nd := range nodes {
		i := i
		err := nd.Inspect(ctx, func(w *core.Worker) {
			out.Iters[i] = w.Iter()
			out.Stats[i] = w.Stats()
			out.States[i] = w.State()
			out.Membership[i] = w.MembershipLog()
			out.Rosters[i] = w.Members()
		})
		if err != nil {
			return nil, fmt.Errorf("testkit: churn realtime snapshot: %w", err)
		}
	}
	cancel()
	wg.Wait()
	for i, nd := range nodes {
		if !nd.FlushSends(5 * time.Second) {
			return nil, fmt.Errorf("testkit: node %d send queues never drained", i)
		}
	}
	for _, tr := range transports {
		if err := tr.Close(); err != nil {
			return nil, err
		}
	}
	out.FifoDrops = reg.Counter("realtime.fifo_drops").Load()
	return out, nil
}
