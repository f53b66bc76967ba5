package jobs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/systems"
)

// Config assembles a lifecycle manager.
type Config struct {
	// Broker is the shared message broker every job's worker group runs
	// over (required). Each job gets its own channel namespace on it.
	Broker *queue.Broker

	// Store records job state and results (nil = a fresh in-memory store).
	Store *Store

	// Metrics, when non-nil, receives the jobs.* counters and gauges
	// (METRICS.md) plus the spawned workers' realtime.* instrumentation.
	Metrics *obs.Registry

	// MaxConcurrent bounds how many jobs train at once (default 2); the
	// rest wait in the queue.
	MaxConcurrent int
	// QueueDepth bounds the admitted-but-waiting job queue (default 8).
	// Beyond it submissions are rejected with ErrQueueFull — the same
	// 429-style shedding internal/serve applies to predict requests.
	QueueDepth int
	// TenantQuota bounds each tenant's non-terminal jobs (default 4).
	TenantQuota int
	// MaxRestarts is the per-job budget of checkpoint-restore worker
	// restarts before the job fails (default 2).
	MaxRestarts int
	// Poll is the supervision interval: iteration progress reads and
	// checkpoint captures (default 50ms).
	Poll time.Duration
	// LivenessTimeout (seconds) is plumbed into every job's worker config
	// so blocking sync strategies route around a crashed-and-restarting
	// peer instead of wedging the whole group (default 2).
	LivenessTimeout float64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 8
	}
	if c.TenantQuota < 1 {
		c.TenantQuota = 4
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 2
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.LivenessTimeout == 0 {
		c.LivenessTimeout = 2
	}
	return c
}

// Manager is the lifecycle half of the control plane: it admits jobs
// against quotas and the bounded queue, schedules them onto training slots,
// spawns each job's worker group over per-job namespaced broker channels,
// supervises progress with periodic checkpoint capture, restarts crashed
// workers from their checkpoints, and drives every job to a terminal state.
type Manager struct {
	cfg   Config
	store *Store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	runs   map[string]*run
	pend   chan string // queued job ids; bounded by QueueDepth

	// jobs.* metric handles (nil-safe without a registry).
	mSubmitted *obs.Counter
	mRejected  *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mHalted    *obs.Counter
	mRestarts  *obs.Counter
	gActive    *obs.Gauge
	gQueued    *obs.Gauge
	hDuration  *obs.Histogram
}

// NewManager builds a manager and starts its scheduler.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("jobs: nil broker")
	}
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		st, err := NewStore("")
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	m := &Manager{
		cfg:   cfg,
		store: cfg.Store,
		runs:  map[string]*run{},
		pend:  make(chan string, cfg.QueueDepth),

		mSubmitted: cfg.Metrics.Counter("jobs.submitted"),
		mRejected:  cfg.Metrics.Counter("jobs.rejected"),
		mCompleted: cfg.Metrics.Counter("jobs.completed"),
		mFailed:    cfg.Metrics.Counter("jobs.failed"),
		mHalted:    cfg.Metrics.Counter("jobs.halted"),
		mRestarts:  cfg.Metrics.Counter("jobs.restarts"),
		gActive:    cfg.Metrics.Gauge("jobs.active"),
		gQueued:    cfg.Metrics.Gauge("jobs.queued"),
		hDuration:  cfg.Metrics.Histogram("jobs.duration"),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.wg.Add(1)
	go m.scheduler()
	return m, nil
}

// Submit validates and admits one job: quota check, bounded-queue check,
// record creation. It returns the queued record, or a structured admission
// error (ErrQuotaExceeded / ErrQueueFull / a validation error).
func (m *Manager) Submit(spec Spec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		m.mRejected.Inc()
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.store.ActiveByTenant(spec.Tenant) >= m.cfg.TenantQuota {
		m.mRejected.Inc()
		return nil, fmt.Errorf("%w: tenant %q at %d active jobs",
			ErrQuotaExceeded, spec.Tenant, m.cfg.TenantQuota)
	}
	if len(m.pend) == cap(m.pend) {
		m.mRejected.Inc()
		return nil, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, cap(m.pend))
	}
	j := &Job{
		ID:    m.store.NextID(),
		Spec:  spec,
		State: StateQueued,
		Iters: make([]int64, spec.Workers),
	}
	if err := m.store.Put(j); err != nil {
		return nil, err
	}
	// Guaranteed room: only Submit (under m.mu) feeds pend, and the length
	// was checked above — the scheduler only drains.
	m.pend <- j.ID
	m.mSubmitted.Inc()
	m.gQueued.Set(int64(len(m.pend)))
	return j.clone(), nil
}

// Get returns a copy of the job record.
func (m *Manager) Get(id string) (*Job, error) { return m.store.Get(id) }

// List returns copies of every job record, newest first.
func (m *Manager) List() []*Job { return m.store.List() }

// Halt stops a job: a queued job transitions to halted immediately; a
// deploying/training job's run context is canceled and the run marks it
// halted as it unwinds (poll Get to observe the transition). Terminal jobs
// return ErrTerminal.
func (m *Manager) Halt(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.store.Get(id)
	if err != nil {
		return nil, err
	}
	if j.State.Terminal() {
		return nil, fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.State)
	}
	if r := m.runs[id]; r != nil {
		r.requestHalt()
		return m.store.Get(id)
	}
	// Still queued: the scheduler will observe the terminal state and skip.
	j.State = StateHalted
	j.Error = "halted before start"
	if err := m.store.Put(j); err != nil {
		return nil, err
	}
	m.mHalted.Inc()
	return j.clone(), nil
}

// CrashWorker kills one worker of a running job, as if its process died
// (the chaos hook behind restart testing): the worker's incarnation context
// is canceled, and the supervisor restarts it from its latest checkpoint —
// or fails the job if the restart budget is spent.
func (m *Manager) CrashWorker(id string, worker int) error {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return fmt.Errorf("%w: %q has no active run", ErrNotFound, id)
	}
	return r.crashWorker(worker)
}

// JobMetrics is the job monitor's answer for one job: lifecycle state,
// final accuracy, and the folded per-worker obs reports. For a job still
// training, the reports are live snapshots.
type JobMetrics struct {
	ID        string             `json:"id"`
	State     State              `json:"state"`
	Restarts  int                `json:"restarts,omitempty"`
	Iters     []int64            `json:"iters,omitempty"`
	FinalAcc  float64            `json:"final_acc,omitempty"`
	FinalLoss float64            `json:"final_loss,omitempty"`
	Workers   []obs.WorkerReport `json:"workers,omitempty"`
}

// JobMetrics folds a job's observability into one queryable record.
func (m *Manager) JobMetrics(id string) (*JobMetrics, error) {
	j, err := m.store.Get(id)
	if err != nil {
		return nil, err
	}
	jm := &JobMetrics{ID: j.ID, State: j.State, Restarts: j.Restarts,
		Iters: j.Iters, FinalAcc: j.FinalAcc, FinalLoss: j.FinalLoss,
		Workers: j.Workers}
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r != nil {
		// Live: snapshot the (atomic, concurrency-safe) per-worker sinks.
		// A still-deploying run snapshots as nil — keep the store's reports.
		if reps := r.snapshotReports(); reps != nil {
			jm.Workers = reps
		}
	}
	return jm, nil
}

// Close stops the scheduler, cancels every active run (their jobs end
// halted), and waits for all run goroutines to unwind.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// scheduler pops queued jobs and runs them, at most MaxConcurrent at once.
func (m *Manager) scheduler() {
	defer m.wg.Done()
	sem := make(chan struct{}, m.cfg.MaxConcurrent)
	for {
		select {
		case <-m.ctx.Done():
			return
		case id := <-m.pend:
			m.gQueued.Set(int64(len(m.pend)))
			select {
			case sem <- struct{}{}:
			case <-m.ctx.Done():
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				defer func() { <-sem }()
				m.runJob(id)
			}()
		}
	}
}

// --- one job's run ---

// run is the in-flight state of one job's worker group.
type run struct {
	m   *Manager
	job *Job // working copy; persisted via sync()

	ctx    context.Context
	cancel context.CancelFunc

	cfg    core.Config
	mspec  nn.Spec
	shards []*data.Shard
	test   *data.Dataset

	mu      sync.Mutex // guards job fields, halt/err, slot node swaps
	halted  bool
	failErr error
	done    bool

	slots []*slot
	sinks []*obs.WorkerObs
	wg    sync.WaitGroup

	start time.Time
}

// slot is one worker position across its incarnations.
type slot struct {
	mu     sync.Mutex
	node   *realtime.Node
	tr     *realtime.BrokerTransport
	wctx   context.Context    // the current incarnation's Run context
	cancel context.CancelFunc // cancels the current incarnation's Run
	ckpt   []byte             // latest captured checkpoint
	man    *lineage.Manifest  // latest captured lineage manifest (chains across captures)
	iters  int64              // latest observed iteration count
}

// runJob drives one job from deploying to a terminal state.
func (m *Manager) runJob(id string) {
	// CAS queued→registered under m.mu: Halt serializes on the same lock,
	// so a job halted between being popped off the queue and reaching here
	// is observed terminal and never starts (no lost-halt window).
	m.mu.Lock()
	j, err := m.store.Get(id)
	if err != nil || j.State != StateQueued {
		m.mu.Unlock()
		return // halted (or vanished) while queued
	}
	ctx, cancel := context.WithCancel(m.ctx)
	r := &run{m: m, job: j, ctx: ctx, cancel: cancel, start: time.Now()}
	m.runs[id] = r
	m.gActive.Set(int64(len(m.runs)))
	m.mu.Unlock()
	defer cancel()
	defer func() {
		m.mu.Lock()
		delete(m.runs, id)
		m.gActive.Set(int64(len(m.runs)))
		m.mu.Unlock()
		m.hDuration.Observe(time.Since(r.start).Seconds())
	}()

	r.setState(StateDeploying, "")
	if err := r.deploy(); err != nil {
		r.mu.Lock()
		r.failErr = err
		r.mu.Unlock()
		r.finish()
		return
	}
	r.setState(StateTraining, "")
	for i := range r.slots {
		r.wg.Add(1)
		go r.workerLoop(i)
	}
	r.supervise()
	r.cancel() // stop the worker group (completion, halt, or failure)
	r.wg.Wait()
	r.finish()
}

// setState transitions the job record and persists it.
func (r *run) setState(st State, msg string) {
	r.mu.Lock()
	r.job.State = st
	r.job.Error = msg
	r.m.store.Put(r.job)
	r.mu.Unlock()
}

// requestHalt asks the run to unwind into the halted state.
func (r *run) requestHalt() {
	r.mu.Lock()
	r.halted = true
	r.mu.Unlock()
	r.cancel()
}

// failWith records the first failure and unwinds the run.
func (r *run) failWith(err error) {
	r.mu.Lock()
	if r.failErr == nil {
		r.failErr = err
	}
	r.mu.Unlock()
	r.cancel()
}

// deploy resolves the spec into configs, data, and the initial worker
// group. Any error here fails the job before it reaches training.
func (r *run) deploy() error {
	spec := r.job.Spec
	cfg, err := systems.ForJob(spec.System, spec.Quant, r.job.ID, spec.MaxIters)
	if err != nil {
		return err
	}
	if spec.LBS > 0 {
		cfg.Batch.InitialLBS = spec.LBS
	}
	// Blocking sync strategies must route around a crashed peer during its
	// restart window instead of wedging the group (see PR 1's live-set-
	// aware synchronization).
	cfg.LivenessTimeout = r.m.cfg.LivenessTimeout
	if spec.Slots > spec.Workers {
		// Leave joiner slots: the group is founded by [0, Workers) and
		// external -job -join workers may take the remaining address space.
		roster := make([]int, spec.Workers)
		for i := range roster {
			roster[i] = i
		}
		cfg.Membership.InitialMembers = roster
	}
	r.cfg = cfg

	dc := data.CIFAR10Config(spec.Scale, spec.Seed+13)
	train, test, err := data.Generate(dc)
	if err != nil {
		return err
	}
	shards, err := data.Partition(train, spec.Slots, spec.Seed)
	if err != nil {
		return err
	}
	r.shards = shards
	r.test = test
	r.mspec = nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, spec.Seed+1000)

	sinks := make([]*obs.WorkerObs, spec.Workers)
	for i := range sinks {
		sinks[i] = obs.NewWorkerObs()
	}
	r.mu.Lock()
	r.sinks = sinks
	r.mu.Unlock()

	// Build the group into a local slice: r.slots is published (under r.mu)
	// only once every worker exists, so concurrent readers — JobMetrics,
	// CrashWorker — never observe a half-built group, and a failed deploy
	// closes the transports it already opened instead of leaking broker
	// subscriptions.
	slots := make([]*slot, spec.Workers)
	for i := 0; i < spec.Workers; i++ {
		node, tr, err := r.buildNode(i, nil)
		if err != nil {
			for _, s := range slots[:i] {
				s.cancel()
				s.tr.Close()
			}
			return err
		}
		s := &slot{node: node, tr: tr}
		s.wctx, s.cancel = context.WithCancel(r.ctx)
		slots[i] = s
	}
	r.mu.Lock()
	r.slots = slots
	r.mu.Unlock()
	return nil
}

// buildNode constructs one worker incarnation on the job's broker
// namespace, restoring ckpt into its model when resuming after a crash
// (the realtime half of PR 1's checkpoint-restore path).
func (r *run) buildNode(i int, ckpt []byte) (*realtime.Node, *realtime.BrokerTransport, error) {
	tr := realtime.NewBrokerTransportNS(r.m.cfg.Broker, i, queue.JobNamespace(r.job.ID))
	node, err := realtime.NewNode(realtime.Config{
		ID: i, N: r.job.Spec.Slots, System: r.cfg, Spec: r.mspec,
		Shard: r.shards[i], Transport: tr,
		Obs: r.sinks[i], Metrics: r.m.cfg.Metrics,
	})
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	if len(ckpt) > 0 {
		if err := node.Worker().Model().Restore(ckpt); err != nil {
			tr.Close()
			return nil, nil, fmt.Errorf("jobs: restore worker %d: %w", i, err)
		}
	}
	return node, tr, nil
}

// workerLoop runs one worker slot across crash-restart incarnations. A Run
// return while the job context is still live is a crash (transport failure
// or CrashWorker): the slot is rebuilt from its latest checkpoint, within
// the job's restart budget. A restarted worker re-runs its full iteration
// budget on the restored weights — at-least-once iteration semantics — so
// blocking peers always see it reach their iteration horizon.
func (r *run) workerLoop(i int) {
	defer r.wg.Done()
	s := r.slots[i]
	for {
		s.mu.Lock()
		node, tr, wctx := s.node, s.tr, s.wctx
		s.mu.Unlock()

		err := node.Run(wctx)
		node.FlushSends(200 * time.Millisecond)
		tr.Close()

		if r.ctx.Err() != nil {
			return // job unwinding: completion, halt, failure, or shutdown
		}

		// Crash path: account the restart against the job budget.
		r.mu.Lock()
		r.job.Restarts++
		restarts := r.job.Restarts
		r.m.store.Put(r.job)
		r.mu.Unlock()
		if restarts > r.m.cfg.MaxRestarts {
			if err == nil {
				err = fmt.Errorf("worker %d exited early", i)
			}
			r.failWith(fmt.Errorf("jobs: restart budget (%d) spent: %w",
				r.m.cfg.MaxRestarts, err))
			return
		}
		r.m.mRestarts.Inc()

		s.mu.Lock()
		ckpt := s.ckpt
		s.mu.Unlock()
		node, tr, berr := r.buildNode(i, ckpt)
		if berr != nil {
			r.failWith(berr)
			return
		}
		s.mu.Lock()
		s.cancel() // release the dead incarnation's context
		s.node, s.tr = node, tr
		s.wctx, s.cancel = context.WithCancel(r.ctx)
		s.mu.Unlock()
	}
}

// crashWorker cancels one slot's current incarnation (the chaos hook).
func (r *run) crashWorker(i int) error {
	r.mu.Lock()
	slots := r.slots
	r.mu.Unlock()
	if slots == nil {
		return fmt.Errorf("jobs: job %s still deploying", r.job.ID)
	}
	if i < 0 || i >= len(slots) {
		return fmt.Errorf("jobs: worker %d outside [0,%d)", i, len(slots))
	}
	s := slots[i]
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel == nil {
		return fmt.Errorf("jobs: worker %d not running", i)
	}
	cancel()
	return nil
}

// supervise polls every worker's progress on its event loop (race-free via
// Inspect), captures checkpoints for crash recovery, publishes live
// iteration counts, and returns once every worker reached the budget — or
// the run context ended first (halt/failure/shutdown).
func (r *run) supervise() {
	tick := time.NewTicker(r.m.cfg.Poll)
	defer tick.Stop()
	target := r.job.Spec.MaxIters
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-tick.C:
			all := true
			iters := make([]int64, len(r.slots))
			for i, s := range r.slots {
				s.mu.Lock()
				node, parent := s.node, s.man
				s.mu.Unlock()
				ictx, cancel := context.WithTimeout(r.ctx, time.Second)
				it, ck, man, err := node.CheckpointManifest(ictx, parent)
				cancel()
				if err != nil {
					all = false // mid-restart; count as in progress
					s.mu.Lock()
					iters[i] = s.iters
					s.mu.Unlock()
					continue
				}
				s.mu.Lock()
				s.iters, s.ckpt = it, ck
				// Adopt the manifest only when training advanced: a same-iter
				// capture cannot extend the chain (links must strictly
				// advance), so the previous manifest stays authoritative.
				if s.man == nil || man.Iter > s.man.Iter {
					s.man = man
				}
				s.mu.Unlock()
				iters[i] = it
				if it < target {
					all = false
				}
			}
			r.mu.Lock()
			copy(r.job.Iters, iters)
			if len(r.job.Lineage) != len(r.slots) {
				r.job.Lineage = make([]*lineage.Manifest, len(r.slots))
			}
			for i, s := range r.slots {
				s.mu.Lock()
				r.job.Lineage[i] = s.man
				s.mu.Unlock()
			}
			r.m.store.Put(r.job)
			r.mu.Unlock()
			if all {
				r.mu.Lock()
				r.done = true
				r.mu.Unlock()
				return
			}
		}
	}
}

// snapshotReports folds the per-worker sinks into job-labelled reports. It
// returns nil until deploy has published the full worker group — callers
// fall back to the store-recorded reports for a still-deploying job.
func (r *run) snapshotReports() []obs.WorkerReport {
	r.mu.Lock()
	slots, sinks := r.slots, r.sinks
	jobID := r.job.ID
	r.mu.Unlock()
	if slots == nil || len(sinks) != len(slots) {
		return nil
	}
	out := make([]obs.WorkerReport, len(sinks))
	for i, o := range sinks {
		rep := o.Snapshot(i)
		rep.Job = jobID
		slots[i].mu.Lock()
		rep.Iters = slots[i].iters
		slots[i].mu.Unlock()
		out[i] = rep
	}
	return out
}

// finish decides the terminal state, evaluates the completed model, folds
// the final obs reports into the record, and persists it.
func (r *run) finish() {
	r.mu.Lock()
	halted, failErr, done := r.halted, r.failErr, r.done
	r.mu.Unlock()

	if reps := r.snapshotReports(); reps != nil {
		r.mu.Lock()
		r.job.Workers = reps
		r.mu.Unlock()
	}

	switch {
	case failErr != nil:
		r.setState(StateFailed, failErr.Error())
		r.m.mFailed.Inc()
	case halted:
		r.setState(StateHalted, "halted by request")
		r.m.mHalted.Inc()
	case done:
		acc, loss, err := r.evaluate()
		if err != nil {
			r.setState(StateFailed, err.Error())
			r.m.mFailed.Inc()
			return
		}
		r.mu.Lock()
		r.job.FinalAcc, r.job.FinalLoss = acc, loss
		r.mu.Unlock()
		r.setState(StateCompleted, "")
		r.m.mCompleted.Inc()
	default:
		// Manager shutdown canceled the run.
		r.setState(StateHalted, "controller shutting down")
		r.m.mHalted.Inc()
	}
}

// evaluate restores the most-trained captured checkpoint and scores it on
// the job's held-out test set — the final accuracy the job monitor serves.
func (r *run) evaluate() (acc, loss float64, err error) {
	var best []byte
	bestIters := int64(-1)
	for _, s := range r.slots {
		s.mu.Lock()
		if s.ckpt != nil && s.iters > bestIters {
			best, bestIters = s.ckpt, s.iters
		}
		s.mu.Unlock()
	}
	if best == nil {
		return 0, 0, fmt.Errorf("jobs: no checkpoint captured")
	}
	model := r.mspec.BuildZero()
	if err := model.Restore(best); err != nil {
		return 0, 0, fmt.Errorf("jobs: final evaluation: %w", err)
	}
	acc, loss = model.Evaluate(r.test, 64)
	return acc, loss, nil
}
