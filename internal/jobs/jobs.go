// Package jobs is the multi-job training control plane: the layer that
// turns the hand-launched DLion reproduction into a job-serving system, the
// way FfDL wraps a training runtime with a REST tier, a lifecycle manager,
// and a job monitor. It accepts job specs over a REST/JSON API, admits them
// against per-tenant quotas and a bounded queue, spawns and supervises a
// worker group per job over the existing broker (per-job namespaced
// channels, so concurrent jobs share one broker without cross-delivery),
// drives the queued → deploying → training → completed/failed/halted state
// machine with checkpoint-restore worker restarts, and folds each run's obs
// reports and final accuracy into a queryable, JSON-file-backed store.
package jobs

import (
	"errors"
	"fmt"

	"dlion/internal/lineage"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/systems"
)

// State is a job's lifecycle state. Legal transitions:
//
//	queued ─→ deploying ─→ training ─→ completed
//	  │            │           ├─────→ failed
//	  │            └───────────┴─────→ halted
//	  └──────────────────────────────→ halted
//
// completed, failed, and halted are terminal.
type State string

// The job lifecycle states.
const (
	StateQueued    State = "queued"    // admitted, waiting for a training slot
	StateDeploying State = "deploying" // worker group being built and wired to the broker
	StateTraining  State = "training"  // workers iterating; supervisor watching
	StateCompleted State = "completed" // every worker reached the iteration budget
	StateFailed    State = "failed"    // crash budget exhausted or deploy error
	StateHalted    State = "halted"    // stopped by DELETE before completing
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateHalted
}

// Spec is a training job description — the POST /v1/jobs request body. It
// names a system preset (the sync strategy), the dataset environment
// (scale + seed of the synthetic generator), the wire precision, the worker
// group size, and the per-worker iteration budget.
type Spec struct {
	// Name is a human label (optional; defaults to the system name).
	Name string `json:"name,omitempty"`
	// Tenant is the quota bucket this job counts against ("default" when
	// empty).
	Tenant string `json:"tenant,omitempty"`
	// System is the preset resolved via systems.ByName: baseline, ako,
	// gaia, hop, dlion, ... — each fixes a sync strategy and selector.
	System string `json:"system"`
	// Quant is the wire precision: "", "i8", "f16", or "auto" (WIRE.md).
	Quant string `json:"quant,omitempty"`
	// Workers is the worker group size spawned for this job.
	Workers int `json:"workers"`
	// Slots, when > Workers, reserves address space for external workers
	// joining the job live (dlion-worker -job -join). The group is founded
	// by ids [0, Workers); ids [Workers, Slots) are joiner slots. 0 means
	// Slots = Workers — a closed group.
	Slots int `json:"slots,omitempty"`
	// MaxIters is the per-worker iteration budget; reaching it on every
	// worker completes the job.
	MaxIters int64 `json:"max_iters"`
	// Scale sizes the synthetic dataset (fraction of the paper's full
	// size; default 0.02).
	Scale float64 `json:"scale,omitempty"`
	// Seed is the shared cluster seed (dataset, sharding, model init).
	Seed uint64 `json:"seed,omitempty"`
	// LBS overrides the initial local batch size (0 keeps the preset's).
	LBS int `json:"lbs,omitempty"`
}

// specLimits bound what a single job may ask of the control plane.
const (
	maxSpecWorkers = 64
	maxSpecSlots   = 256
	maxSpecIters   = 1_000_000
)

// withDefaults fills a spec's zero values.
func (s Spec) withDefaults() Spec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Name == "" {
		s.Name = s.System
	}
	if s.Slots == 0 {
		s.Slots = s.Workers
	}
	if s.Scale == 0 {
		s.Scale = systems.DefaultScale
	}
	if s.Seed == 0 {
		s.Seed = systems.DefaultSeed
	}
	return s
}

// Validate rejects malformed specs with one-line errors (the API maps them
// to 400s). It runs on the defaulted spec.
func (s Spec) Validate() error {
	switch {
	case s.System == "":
		return fmt.Errorf("jobs: spec has no system")
	case s.Workers < 1 || s.Workers > maxSpecWorkers:
		return fmt.Errorf("jobs: workers %d outside [1,%d]", s.Workers, maxSpecWorkers)
	case s.Slots < s.Workers || s.Slots > maxSpecSlots:
		return fmt.Errorf("jobs: slots %d outside [workers=%d,%d]", s.Slots, s.Workers, maxSpecSlots)
	case s.MaxIters < 1 || s.MaxIters > maxSpecIters:
		return fmt.Errorf("jobs: max_iters %d outside [1,%d]", s.MaxIters, maxSpecIters)
	case s.Scale < 0.001 || s.Scale > 1:
		return fmt.Errorf("jobs: scale %g outside [0.001,1]", s.Scale)
	case s.LBS < 0 || s.LBS > 4096:
		return fmt.Errorf("jobs: lbs %d outside [0,4096]", s.LBS)
	case !queue.ValidJobID(s.Tenant):
		return fmt.Errorf("jobs: tenant %q is not a valid identifier", s.Tenant)
	}
	// Resolve the preset + precision now so a bad system or quant mode is
	// a 400 at submission, not a deploy-time failure.
	if _, err := systems.ForJob(s.System, s.Quant, "", s.MaxIters); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// Job is one training job's record: the spec, the lifecycle state, and the
// monitor's folded results. The manager mutates it under the store's lock;
// API reads get copies.
type Job struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Error carries the failure (or halt) reason for terminal states.
	Error string `json:"error,omitempty"`

	// Iters is the per-worker completed iteration count, updated live by
	// the supervisor while the job trains (each entry is its report's).
	Iters []int64 `json:"iters,omitempty"`
	// Restarts counts checkpoint-restore worker restarts across the group.
	Restarts int `json:"restarts,omitempty"`

	// Lineage is each worker's latest checkpoint manifest, chained per
	// worker across supervisor captures — the store-persisted provenance
	// trail (which weights each worker last reached, and what history
	// produced them). Entries are nil until the first capture.
	Lineage []*lineage.Manifest `json:"lineage,omitempty"`

	// FinalAcc/FinalLoss are the completed model's test-set evaluation.
	FinalAcc  float64 `json:"final_acc,omitempty"`
	FinalLoss float64 `json:"final_loss,omitempty"`

	// Workers holds each worker's report (job-labelled, core.Worker.Report),
	// taken by the supervisor on every poll and once more when the job
	// reaches a terminal state.
	Workers []obs.WorkerReport `json:"workers,omitempty"`
}

// clone deep-copies the record so API consumers never alias store state.
func (j *Job) clone() *Job {
	c := *j
	c.Iters = append([]int64(nil), j.Iters...)
	// Manifests are immutable once captured, so sharing the pointers is safe;
	// only the slice header needs copying.
	c.Lineage = append([]*lineage.Manifest(nil), j.Lineage...)
	c.Workers = append([]obs.WorkerReport(nil), j.Workers...)
	return &c
}

// Structured admission and lookup errors. The REST layer maps these onto
// status codes (429 for quota/queue pressure, 404 for unknown ids, 409 for
// state conflicts, 400 for bad specs).
var (
	// ErrQuotaExceeded rejects a submission that would push its tenant past
	// the per-tenant active-job quota.
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")
	// ErrQueueFull rejects a submission when the bounded job queue is full —
	// the control-plane analogue of serve's 429 admission shedding.
	ErrQueueFull = errors.New("jobs: job queue full")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal reports an operation on a job already in a terminal state.
	ErrTerminal = errors.New("jobs: job already terminal")
	// ErrClosed reports an operation on a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)
