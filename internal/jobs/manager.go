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
	// so a crashed-and-restarting peer leaves the roster instead of
	// wedging blocking sync strategies, and rejoins it (default 2).
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
// (the chaos hook behind restart testing): the job's group restarts it from
// its latest captured checkpoint — or fails the job if the restart budget
// is spent.
func (m *Manager) CrashWorker(id string, worker int) error {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return fmt.Errorf("%w: %q has no active run", ErrNotFound, id)
	}
	r.mu.Lock()
	g := r.group
	r.mu.Unlock()
	if g == nil {
		return fmt.Errorf("jobs: job %s still deploying", id)
	}
	return g.Crash(worker)
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

	test *data.Dataset

	mu      sync.Mutex // guards job fields, halt/err, and the group's publication
	halted  bool
	failErr error

	group *realtime.Group // nil until deploy has built every worker
	sinks []*obs.WorkerObs

	start time.Time
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
		r.failWith(err)
		r.finish(false)
		return
	}
	r.setState(StateTraining, "")
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		// Crashed workers restart from their last checkpoint within the budget.
		if err := r.group.Run(r.ctx); err != nil {
			r.failWith(fmt.Errorf("jobs: %w", err))
		}
	}()
	done := r.supervise()
	r.cancel() // stop the worker group (completion, halt, or failure)
	<-ran
	r.finish(done)
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

// deploy resolves the spec into configs, data, and the job's worker group
// on its broker namespace. Any error here fails the job before it reaches
// training.
func (r *run) deploy() error {
	spec := r.job.Spec
	cfg, err := systems.ForJob(spec.System, spec.Quant, r.job.ID, spec.MaxIters)
	if err != nil {
		return err
	}
	if spec.LBS > 0 {
		cfg.Batch.InitialLBS = spec.LBS
	}
	// Blocking sync strategies must not wedge on a crashed peer during its
	// restart window: the failure detector drops it from the roster until
	// it rejoins (DESIGN.md §7).
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

	dc := data.CIFAR10Config(spec.Scale, spec.Seed+13)
	train, test, err := data.Generate(dc)
	if err != nil {
		return err
	}
	shards, err := data.Partition(train, spec.Slots, spec.Seed)
	if err != nil {
		return err
	}
	r.test = test
	mspec := nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, spec.Seed+1000)

	sinks := make([]*obs.WorkerObs, spec.Workers)
	for i := range sinks {
		sinks[i] = obs.NewWorkerObs()
	}
	g, err := realtime.NewGroup(spec.Workers, func(i int) (realtime.Config, error) {
		tr := realtime.NewBrokerTransport(r.m.cfg.Broker, i, queue.JobNamespace(r.job.ID))
		return realtime.Config{ID: i, N: spec.Slots, System: cfg, Spec: mspec, Shard: shards[i],
			Transport: tr, Obs: sinks[i], Metrics: r.m.cfg.Metrics}, nil
	}, r.m.cfg.MaxRestarts)
	if err != nil {
		return err
	}
	// Published only once every worker exists, so JobMetrics and CrashWorker
	// never see a half-built group.
	r.mu.Lock()
	r.group, r.sinks = g, sinks
	r.job.Lineage = make([]*lineage.Manifest, spec.Workers)
	r.mu.Unlock()
	return nil
}

// supervise captures every worker's checkpoint — the group's restart point,
// the job's lineage and live iteration counts — and reports whether every
// worker reached the budget before the run ended (halt/failure/shutdown).
func (r *run) supervise() bool {
	tick := time.NewTicker(r.m.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return false
		case <-tick.C:
		}
		all := true
		for i := range r.sinks {
			ictx, cancel := context.WithTimeout(r.ctx, time.Second)
			it, _, man, err := r.group.Checkpoint(ictx, i)
			cancel()
			all = all && err == nil && it >= r.job.Spec.MaxIters
			if err != nil {
				continue // mid-restart: keep the last count
			}
			r.mu.Lock()
			r.job.Iters[i], r.job.Lineage[i] = it, man
			r.mu.Unlock()
		}
		r.mu.Lock()
		r.countRestarts()
		r.m.store.Put(r.job)
		r.mu.Unlock()
		if all {
			return true
		}
	}
}

// countRestarts folds the group's restarts into the job record and the
// jobs.restarts counter. The caller holds r.mu.
func (r *run) countRestarts() {
	if d := r.group.Restarts() - r.job.Restarts; d > 0 {
		r.job.Restarts += d
		r.m.mRestarts.Add(int64(d))
	}
}

// snapshotReports folds the per-worker sinks into job-labelled reports. It
// returns nil until deploy has published the full worker group — callers
// fall back to the store-recorded reports for a still-deploying job.
func (r *run) snapshotReports() []obs.WorkerReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.group == nil {
		return nil
	}
	out := make([]obs.WorkerReport, len(r.sinks))
	for i, o := range r.sinks {
		out[i] = o.Snapshot(i)
		out[i].Job = r.job.ID
		out[i].Iters = r.job.Iters[i]
	}
	return out
}

// finish decides the terminal state, evaluates the completed model, folds
// the final obs reports into the record, and persists it.
func (r *run) finish(done bool) {
	reps := r.snapshotReports()
	r.mu.Lock()
	if reps != nil {
		r.job.Workers = reps
		r.countRestarts()
	}
	halted, failErr := r.halted, r.failErr
	r.mu.Unlock()

	// Each counter moves before its terminal state is published, so a client
	// that has seen the state reads a counter that includes it.
	switch {
	case failErr != nil:
		r.m.mFailed.Inc()
		r.setState(StateFailed, failErr.Error())
	case halted:
		r.m.mHalted.Inc()
		r.setState(StateHalted, "halted by request")
	case done:
		r.mu.Lock()
		r.job.FinalAcc, r.job.FinalLoss = r.evaluate()
		r.mu.Unlock()
		r.m.mCompleted.Inc()
		r.setState(StateCompleted, "")
	default:
		// Manager shutdown canceled the run.
		r.m.mHalted.Inc()
		r.setState(StateHalted, "controller shutting down")
	}
}

// evaluate scores the most-trained worker's final model on the job's
// held-out test set — the final accuracy the job monitor serves. The group
// has stopped, so Inspect reads each worker directly.
func (r *run) evaluate() (acc, loss float64) {
	var best *core.Worker
	for i := range r.sinks {
		r.group.Inspect(r.ctx, i, func(w *core.Worker) {
			if best == nil || w.Iter() > best.Iter() {
				best = w
			}
		})
	}
	return best.Model().Evaluate(r.test, 64)
}
