// Package cluster is the simulation driver: it assembles a micro-cloud (n
// workers with compute capacity schedules, a network, a dataset, a model
// spec, and a system configuration), runs it on the discrete-event engine,
// and collects the evaluation timelines, traces, and counters the paper's
// figures are built from.
package cluster

import (
	"fmt"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/simclock"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// Config describes one experiment run.
type Config struct {
	System core.Config
	Model  nn.Spec
	Data   data.Config

	N        int
	Computes []*simcompute.Compute // per-worker compute, len N
	Network  *simnet.Network       // n-worker mesh

	Horizon     float64 // virtual seconds to simulate
	EvalPeriod  float64 // seconds between accuracy evaluations (default 50)
	EvalSubset  int     // test samples used per evaluation (default 256)
	EvalBatch   int     // forward batch for evaluation (default 64)
	TracePeriod float64 // seconds between trace samples; 0 disables traces

	// Faults schedules injected failures — worker crash/restart, link
	// partitions, packet loss, delay, corruption — over virtual time. Nil
	// runs fault-free. Crashed workers are restored from the schedule's
	// periodic checkpoints and rejoin through the freshest live peer.
	//
	// Faults.Joins/Leaves drive elastic membership: a worker with a Join
	// entry stays dormant (excluded from the founding roster) until its
	// join time, when the driver runs the admission handshake toward its
	// sponsor (or the freshest active member when Sponsor < 0); a Leave
	// entry makes the worker depart gracefully at its time.
	Faults *fault.Schedule

	// Observe attaches a per-worker observability sink (internal/obs) and
	// charges the virtual-time phase breakdown — compute, serialize, send,
	// recv-wait — as the run executes. Off by default: the instrumentation
	// points then see nil sinks and cost one branch each (see METRICS.md).
	Observe bool

	// PerWorker, when non-nil, rewrites worker id's core config before
	// construction — heterogeneous experiments (mixed quantization accept
	// masks, per-worker batch policy) without one Config per worker. It runs
	// after the driver's own membership rewrites, so it sees (and may
	// override) the final config.
	PerWorker func(id int, c core.Config) core.Config

	Seed uint64
}

// Trace is one sample of internal controller state (Figures 6, 8, 19, 20).
type Trace struct {
	T        float64
	GBS      int
	LBS      []int          // per worker
	SelCount map[[2]int]int // gradient values last sent on link [from,to]
	Budget   map[[2]int]int // byte budget last used on link [from,to]
}

// Result aggregates everything a run produced.
type Result struct {
	System   string
	Timeline Timeline
	Stats    []core.Stats
	Iters    []int64
	Traces   []Trace

	// TotalBytes is the sum of bytes actually delivered to live workers
	// (network-model scaled), for communication-volume comparisons.
	// Messages dropped by partitions, loss, corruption, dead links, or
	// crashed receivers are not counted.
	TotalBytes int64

	// Faults snapshots the fault-injection counters (zero when no schedule
	// was configured).
	Faults fault.Stats

	// Obs holds one phase/transfer breakdown per worker when Config.Observe
	// was set (nil otherwise). The records follow the METRICS.md schema and
	// drop straight into an obs.Report's workers section.
	Obs []obs.WorkerReport

	// Models exposes the final model replicas (inspection and tests), every
	// step joined: W is final. A worker whose last step was dropped (it
	// completed past the horizon and nothing joined it) keeps the G of the
	// last step that ran. They share one activation arena
	// (nn.Spec.Replicas), so use them from one goroutine at a time; weights
	// may be read concurrently.
	Models []*nn.Model

	// Membership is each worker's roster mutation history (always present;
	// static runs log one seed entry). States and Rosters are the final
	// membership state and roster per worker. The testkit churn gate
	// asserts exact gradient-fanout renormalization over these logs.
	Membership [][]core.EpochChange
	States     []core.MemberState
	Rosters    [][]int

	// Events is the number of DES events the engine executed — the
	// numerator of the sim-throughput benchmark (events per wall second).
	Events uint64

	// peakPending is the most events the engine held at once, which Run
	// reserves the queue for.
	peakPending int
	// steps counts the training steps that completed past the horizon:
	// deferred, run late because a join reached them while the loop ran,
	// and dropped at the end of the Run.
	steps stepCounts
	// evalForwards is, per Timeline point, how many replicas' forward
	// passes ran; the others reported an identical replica's result.
	evalForwards []int
}

func (c *Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("cluster: need >= 2 workers, got %d", c.N)
	case len(c.Computes) != c.N:
		return fmt.Errorf("cluster: %d computes for %d workers", len(c.Computes), c.N)
	case c.Network == nil || c.Network.Size() != c.N:
		return fmt.Errorf("cluster: network size mismatch")
	case c.Horizon <= 0:
		return fmt.Errorf("cluster: horizon %v", c.Horizon)
	}
	if c.Faults != nil && len(c.Faults.Joins) >= c.N {
		return fmt.Errorf("cluster: all %d workers join; no founders", c.N)
	}
	return c.Faults.Validate(c.N)
}

func (c Config) withDefaults() Config {
	if c.EvalPeriod == 0 {
		c.EvalPeriod = 50
	}
	if c.EvalSubset == 0 {
		c.EvalSubset = 256
	}
	if c.EvalBatch == 0 {
		c.EvalBatch = 64
	}
	return c
}

// simEnv implements core.Env over the simulation substrates.
type simEnv struct {
	eng       *simclock.Engine
	net       *simnet.Network
	computes  []*simcompute.Compute
	workers   []*core.Worker
	inj       *fault.Injector
	wireScale float64
	egress    []float64 // per worker: time its NIC is busy until
	sentBytes int64
	ckpts     [][]byte         // latest checkpoint per worker (crash recovery)
	obs       []*obs.WorkerObs // per-worker sinks; nil when Observe is off
	delivFree []*delivery      // retired delivery events for reuse
	slots     *tensor.Slots    // where the workers' training steps run

	// Steps that complete past the horizon are lazy (Step, Join): held in
	// lazy[w] until worker w joins them, run then while the loop runs, and
	// dropped once ended is set.
	horizon float64
	ended   bool
	lazy    []func(ws *tensor.Workspace)
	steps   stepCounts
}

// stepCounts is what became of a Run's lazy steps.
type stepCounts struct {
	deferred, late, dropped int
}

// delivery is a pooled message-arrival event. Send used to schedule a
// closure per message — the dominant steady-state allocation of the event
// loop at large n. A delivery is taken from the env's free list, scheduled
// via Engine.AtHandler (no closure), and returns itself to the free list
// after firing. The simulation is single-threaded, so the free list needs
// no locking; recursion is safe because Fire re-pools itself only after
// HandleMessage (and any Sends it triggers) returns.
type delivery struct {
	env   *simEnv
	to    int
	bytes float64
	m     *wire.Message
}

// Fire implements simclock.Handler: the message arrives at worker `to`.
func (d *delivery) Fire() {
	e := d.env
	if e.workers[d.to].Stopped() {
		e.inj.DeadDrop()
	} else {
		e.sentBytes += int64(d.bytes)
		e.workers[d.to].HandleMessage(d.m)
	}
	d.m = nil
	e.delivFree = append(e.delivFree, d)
}

// newDelivery takes a delivery event from the free list or allocates one.
func (e *simEnv) newDelivery(to int, bytes float64, m *wire.Message) *delivery {
	if n := len(e.delivFree); n > 0 {
		d := e.delivFree[n-1]
		e.delivFree[n-1] = nil
		e.delivFree = e.delivFree[:n-1]
		d.to, d.bytes, d.m = to, bytes, m
		return d
	}
	return &delivery{env: e, to: to, bytes: bytes, m: m}
}

func (e *simEnv) SendScale() float64         { return e.wireScale }
func (e *simEnv) Now() float64               { return e.eng.Now() }
func (e *simEnv) After(d float64, fn func()) { e.eng.After(d, fn) }
func (e *simEnv) NumWorkers() int            { return len(e.computes) }

// Step hands the step to a slot and returns at once: what an iteration is
// charged is the cost model's, whatever the step computes, and the step
// costs no virtual time, so wait = charged. The worker joins the step
// before it next reads its model. A step whose completion falls past the
// horizon — the comparison Engine.Run stops on, at the time After will
// schedule it for — is held back instead: its gradient is never applied
// or sent, and its loss is read only if a join reaches it first (Join).
func (e *simEnv) Step(w, b int, run func(ws *tensor.Workspace)) (charged, wait float64) {
	now := e.eng.Now()
	d := e.computes[w].IterTime(b, now)
	if now+d > e.horizon {
		e.lazy[w] = run
		e.steps.deferred++
	} else {
		e.slots.Go(run)
	}
	return d, d
}

// Join hands worker w's held-back step to a slot while the event loop runs,
// because whatever joins it may read it (a DKT election reads its loss),
// and the worker waits for it as for any step. Once the loop has returned
// nothing can, and the step is dropped.
func (e *simEnv) Join(w int) bool {
	run := e.lazy[w]
	if run == nil {
		return true
	}
	e.lazy[w] = nil
	if e.ended {
		e.steps.dropped++
		return false
	}
	e.slots.Go(run)
	e.steps.late++
	return true
}

func (e *simEnv) ProfileCompute(w int, batches []int) (x, y []float64) {
	return e.computes[w].Profile(batches, e.eng.Now())
}

func (e *simEnv) Bandwidth(from, to int) float64 {
	bw, err := e.net.BandwidthAt(from, to, e.eng.Now())
	if err != nil {
		return 0
	}
	return bw
}

// Send models a store-and-forward transfer: data-plane messages (gradients
// and weights) are scaled to the paper's model wire size, serialized on the
// sender's egress link (shared across its peers, which is what makes
// all-to-all full-gradient exchange expensive), and delivered after
// serialization plus half the RTT plus any injected delay.
//
// Failure semantics: an unconnected or zero-bandwidth link, or an injected
// partition, drops the message before it consumes egress time (the NIC
// fails fast). Injected loss and corruption drop it after serialization —
// the bytes crossed the sender's egress and died in the WAN or at the
// receiver's integrity check. TotalBytes counts only messages actually
// delivered to a live worker.
func (e *simEnv) Send(from, to int, m *wire.Message) {
	bytes := float64(m.WireBytes())
	if m.Type == wire.TypeGradient || m.Type == wire.TypeWeights {
		bytes *= e.wireScale
	}
	now := e.eng.Now()
	start := now
	if e.egress[from] > start {
		start = e.egress[from]
	}
	// One link lookup serves both the bandwidth sample and the RTT; the old
	// path resolved the link twice per message.
	l, err := e.net.Link(from, to)
	if err != nil {
		return // unconnected link: behaves as a partition
	}
	bw := l.Bandwidth.At(start)
	if bw <= 0 {
		return // dead link: behaves as a partition
	}
	v := e.inj.Message(from, to, now)
	if v.Partitioned {
		return
	}
	ser := bytes * 8 / (bw * 1e6)
	e.egress[from] = start + ser
	if e.obs != nil {
		// Virtual-time phase charges: egress serialization (including any
		// wait for the shared NIC) and in-flight propagation.
		e.obs[from].AddPhase(obs.PhaseSerialize, start+ser-now)
	}
	if !v.Deliver {
		return // lost or corrupted in flight: egress was spent, nothing arrives
	}
	arrival := start + ser + float64(l.RTT/2) + v.ExtraDelay
	if e.obs != nil {
		e.obs[from].AddPhase(obs.PhaseSend, arrival-(start+ser))
	}
	// The message outlives this call, so it may no longer borrow the sender's
	// gradient. Links of one iteration share their selections: one copy.
	for _, s := range m.Selections {
		s.Own()
	}
	e.eng.AtHandler(arrival, e.newDelivery(to, bytes, m))
}

// Run executes one experiment and returns its results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	train, test, err := data.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	shards, err := data.Partition(train, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	evalSet := test.Head(cfg.EvalSubset)

	env := &simEnv{
		eng:      simclock.New(),
		net:      cfg.Network,
		computes: cfg.Computes,
		inj:      fault.NewInjector(cfg.Faults),
		egress:   make([]float64, cfg.N),
		// Every worker has at most one step in flight.
		slots:   tensor.NewSlots(cfg.N),
		horizon: cfg.Horizon,
		lazy:    make([]func(ws *tensor.Workspace), cfg.N),
	}
	defer env.slots.Close()
	// The peak queue is the t = 0 burst's all-to-all exchange, n² + n + 1
	// events on the federation workload (TestEventHeapReserve): sized once
	// instead of doubling up to it.
	env.eng.Reserve(cfg.N*cfg.N + 2*cfg.N + 16)
	spec := cfg.Model
	spec.Seed = cfg.Seed + 1000 // all replicas share this seed: identical init
	// Training steps draw from the step slots' arenas (Model.TrainStepOn), so
	// the replicas share one arena for anything else instead of keeping n
	// private ones idle.
	models := spec.Replicas(cfg.N)
	env.wireScale = float64(spec.ExchangeBytes()) / float64(models[0].SizeBytes())
	if env.wireScale < 1 {
		env.wireScale = 1
	}

	env.workers = make([]*core.Worker, cfg.N)
	if cfg.Observe {
		env.obs = make([]*obs.WorkerObs, cfg.N)
		for i := range env.obs {
			env.obs[i] = obs.NewWorkerObs()
		}
	}
	// Workers with a Join entry stay dormant: they are excluded from the
	// founding roster and admitted via the handshake at their join time.
	joiners := map[int]bool{}
	if cfg.Faults != nil {
		for _, j := range cfg.Faults.Joins {
			joiners[j.Worker] = true
		}
	}
	var founders []int
	if len(joiners) > 0 {
		for i := 0; i < cfg.N; i++ {
			if !joiners[i] {
				founders = append(founders, i)
			}
		}
	}
	// Iteration-triggered leaves are a per-worker config knob, not a timer.
	leaveAfter := map[int]int64{}
	if cfg.Faults != nil {
		for _, l := range cfg.Faults.Leaves {
			if l.AfterIters > 0 {
				leaveAfter[l.Worker] = l.AfterIters
			}
		}
	}
	for i := range env.workers {
		wcfg := cfg.System
		if len(joiners) > 0 {
			if joiners[i] {
				wcfg.Membership.Join = true
				wcfg.Membership.Sponsor = -1 // resolved at join time
				wcfg.Membership.InitialMembers = nil
			} else {
				wcfg.Membership.Join = false
				wcfg.Membership.InitialMembers = founders
			}
		}
		if la := leaveAfter[i]; la > 0 {
			wcfg.Membership.LeaveAfterIters = la
		}
		if cfg.PerWorker != nil {
			wcfg = cfg.PerWorker(i, wcfg)
		}
		w, err := core.New(i, wcfg, models[i], shards[i], env)
		if err != nil {
			return nil, err
		}
		if env.obs != nil {
			w.SetObs(env.obs[i])
		}
		env.workers[i] = w
	}

	res := &Result{System: cfg.System.Name}
	// evalBuf holds one result per replica so evaluation can fan out across
	// goroutines and still merge in worker-id order below; src[i] is the
	// replica whose result replica i reports (-1: dormant), and forward
	// lists the replicas whose forward passes run.
	type evalSlot struct{ acc, loss float64 }
	evalBuf := make([]evalSlot, cfg.N)
	src := make([]int, cfg.N)
	forward := make([]int, 0, cfg.N)
	// scratch[slot] is the evaluation goroutine's private replica, built on
	// first use: forward passes need an arena, and the training replicas'
	// shared one is single-goroutine.
	scratch := make([]*nn.Model, cfg.N)
	evaluate := func() {
		// Evaluation reads each replica's weights as a join would leave them
		// (CopyJoinedWeights) and joins nothing, so it neither waits for nor
		// runs a step in flight: the steps read W too, and nobody writes it
		// while the event loop waits here.
		//
		// Dormant (not yet admitted) joiners are excluded: their fresh
		// replicas are not part of the federation. Crashed and departed
		// workers keep contributing their frozen models, as before. A
		// replica whose view is bit-identical to the previous non-dormant
		// replica's reports that one's result — at t = 0, all of them;
		// views are compared only with no gradient queued on either side.
		forward = forward[:0]
		prev := -1
		for i, w := range env.workers {
			if st := w.State(); st == core.StateJoining || st == core.StateSyncing {
				src[i] = -1
				continue
			}
			if prev >= 0 && w.QueuedGradients() == 0 && env.workers[prev].QueuedGradients() == 0 &&
				models[i].WeightsEqual(models[prev]) {
				src[i] = src[prev]
			} else {
				src[i] = i
				forward = append(forward, i)
			}
			prev = i
		}
		// The forward passes run concurrently (tensor.ParallelReplicas),
		// each goroutine copying its replica's view into its own scratch
		// model and evaluating that; the accs slice and loss sum are merged
		// serially in worker-id order, so the timeline is byte-for-byte the
		// same as a sequential loop over the joined replicas produces.
		tensor.ParallelReplicas(len(forward), func(slot, k int) {
			i := forward[k]
			if scratch[slot] == nil {
				scratch[slot] = spec.BuildZero()
			}
			// same spec, same shapes: the copy cannot fail
			_ = env.workers[i].CopyJoinedWeights(scratch[slot])
			a, l := scratch[slot].Evaluate(evalSet, cfg.EvalBatch)
			evalBuf[i] = evalSlot{acc: a, loss: l}
		})
		accs := make([]float64, 0, cfg.N)
		var lossSum float64
		for _, s := range src {
			if s >= 0 {
				accs = append(accs, evalBuf[s].acc)
				lossSum += evalBuf[s].loss
			}
		}
		if len(accs) == 0 {
			return
		}
		res.Timeline = append(res.Timeline,
			NewPoint(env.eng.Now(), accs, lossSum/float64(len(accs))))
		res.evalForwards = append(res.evalForwards, len(forward))
	}
	trace := func() {
		res.Traces = append(res.Traces, sampleTrace(env.workers, env.eng.Now()))
	}

	evaluate() // t = 0 baseline point
	env.eng.Every(cfg.EvalPeriod, evaluate, nil)
	if cfg.TracePeriod > 0 {
		env.eng.Every(cfg.TracePeriod, trace, nil)
	}
	scheduleFaults(env, models, spec)
	for i, w := range env.workers {
		if !joiners[i] {
			w.Start()
		}
	}
	env.eng.Run(cfg.Horizon)

	// Final state at the horizon: every worker joined, which drops the steps
	// still held back (nothing can read them now) and applies the gradients
	// queued behind them.
	env.ended = true
	for _, w := range env.workers {
		w.JoinStep()
	}
	if len(res.Timeline) == 0 || res.Timeline[len(res.Timeline)-1].T < cfg.Horizon {
		evaluate()
		res.Timeline[len(res.Timeline)-1].T = cfg.Horizon
	}
	for i, w := range env.workers {
		res.Stats = append(res.Stats, w.Stats())
		res.Iters = append(res.Iters, w.Iter())
		res.Membership = append(res.Membership, w.MembershipLog())
		res.States = append(res.States, w.State())
		res.Rosters = append(res.Rosters, w.Members())
		if env.obs != nil {
			wr := env.obs[i].Snapshot(i)
			wr.Iters = w.Iter()
			res.Obs = append(res.Obs, wr)
		}
	}
	res.TotalBytes = env.sentBytes
	res.Faults = env.inj.Stats()
	res.Models = models
	res.Events = env.eng.Executed()
	res.peakPending = env.eng.Peak()
	res.steps = env.steps
	return res, nil
}

// sampleTrace captures one Trace of the controllers' internal state. The
// maps and the LBS slice are allocated at exact final size — every ordered
// worker pair (i,j), i != j, gets one entry in each map — so a sample costs
// a fixed small number of allocations and never rehashes mid-fill (pinned
// by BenchmarkTraceSample / TestTraceSampleAllocs).
func sampleTrace(workers []*core.Worker, t float64) Trace {
	n := len(workers)
	nLinks := n * (n - 1)
	tr := Trace{T: t, GBS: workers[0].GBS(),
		LBS:      make([]int, n),
		SelCount: make(map[[2]int]int, nLinks),
		Budget:   make(map[[2]int]int, nLinks)}
	for i, w := range workers {
		tr.LBS[i] = w.LBS()
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			tr.SelCount[[2]int{i, j}] = w.LastSelectedCount(j)
			tr.Budget[[2]int{i, j}] = w.LastBudget(j)
		}
	}
	return tr
}

// scheduleFaults arms the crash/restart timeline and the periodic
// checkpoint loop on the event engine. A crashed worker is Stop()ped (its
// timers die, traffic to it is dropped); at restart its replica is restored
// from the latest checkpoint — or rebuilt from the spec when none exists
// yet — and Resume rejoins it through the freshest live peer as a joiner
// is admitted: HELLO, then the WELCOME's roster, iteration and weights.
func scheduleFaults(env *simEnv, models []*nn.Model, spec nn.Spec) {
	if period := env.inj.CheckpointPeriod(); period > 0 {
		ckpts := make([][]byte, len(models))
		env.eng.Every(period, func() {
			for i, w := range env.workers {
				if !w.Stopped() {
					w.JoinStep()
					ckpts[i] = models[i].Checkpoint()
				}
			}
		}, nil)
		env.ckpts = ckpts
	}
	for _, j := range env.inj.Joins() {
		j := j
		env.eng.At(j.At, func() {
			w := env.workers[j.Worker]
			if w.Stopped() || w.State() != core.StateJoining {
				return // crashed while dormant, or already joined
			}
			sponsor := j.Sponsor
			if sponsor < 0 || sponsor == j.Worker ||
				env.workers[sponsor].Stopped() || env.workers[sponsor].State() != core.StateActive {
				sponsor = freshestLivePeer(env.workers, j.Worker)
			}
			if sponsor < 0 {
				// Nobody is alive to sponsor: aim at any peer so the
				// handshake times out into solo training instead of never
				// starting.
				sponsor = (j.Worker + 1) % len(env.workers)
			}
			env.inj.JoinExecuted()
			w.StartJoin(sponsor)
		})
	}
	for _, l := range env.inj.Leaves() {
		l := l
		if l.AfterIters > 0 {
			continue // configured on the worker itself (step-exact trigger)
		}
		env.eng.At(l.At, func() {
			w := env.workers[l.Worker]
			if w.Stopped() || w.State() != core.StateActive {
				return // already crashed, left, or never admitted
			}
			w.Leave()
			env.inj.LeaveExecuted()
		})
	}
	for _, cr := range env.inj.Crashes() {
		cr := cr
		env.eng.At(cr.At, func() {
			w := env.workers[cr.Worker]
			if w.Stopped() {
				return
			}
			w.Stop()
			env.inj.CrashExecuted()
			if cr.RestartAfter <= 0 {
				return
			}
			env.eng.After(cr.RestartAfter, func() {
				// Stop joined the worker's step, and a stopped worker
				// starts none, so the replica is the driver's to restore.
				if env.ckpts != nil && env.ckpts[cr.Worker] != nil {
					// ignore restore errors: same spec produced the
					// checkpoint, so they cannot occur
					_ = models[cr.Worker].Restore(env.ckpts[cr.Worker])
				} else {
					// no checkpoint yet: cold restart from a fresh replica
					_ = models[cr.Worker].CopyWeightsFrom(spec.Build())
				}
				env.inj.RestartExecuted()
				w.Resume(freshestLivePeer(env.workers, cr.Worker))
			})
		})
	}
}

// freshestLivePeer returns the running active member (other than self)
// with the most completed iterations, or -1 when none is alive. Dormant
// joiners are not members yet and cannot sponsor an admission or a rejoin.
func freshestLivePeer(workers []*core.Worker, self int) int {
	best, bestIter := -1, int64(-1)
	for i, w := range workers {
		if i == self || w.Stopped() || w.State() != core.StateActive {
			continue
		}
		if w.Iter() > bestIter {
			best, bestIter = i, w.Iter()
		}
	}
	return best
}

// RunUntilConverged repeatedly extends the horizon until the accuracy
// timeline plateaus (Figure 21's "train until fully converged") or maxTime
// is hit, returning the result of the final run plus the convergence time.
func RunUntilConverged(cfg Config, window int, eps, maxTime float64) (*Result, float64, error) {
	cfg = cfg.withDefaults()
	horizon := cfg.Horizon
	for {
		c := cfg
		c.Horizon = horizon
		res, err := Run(c)
		if err != nil {
			return nil, 0, err
		}
		if res.Timeline.Converged(window, eps) || horizon >= maxTime {
			// convergence time: first point within eps of the final accuracy
			final := res.Timeline.FinalMean()
			for _, p := range res.Timeline {
				if p.Mean >= final-eps {
					return res, p.T, nil
				}
			}
			return res, horizon, nil
		}
		horizon *= 2
	}
}
