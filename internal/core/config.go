// Package core implements the DLion worker (Figure 10 of the paper): the
// training workflow, the weighted dynamic batching technique (GBS and LBS
// controllers + weighted model update, §3.2), per-link prioritized gradient
// exchange (§3.3), direct knowledge transfer (§3.4), and the configurable
// synchronization strategies of §4.2. The four comparison systems are
// expressed as configurations of the same worker (see internal/systems),
// mirroring how the prototype emulated them with ≤23 changed lines.
package core

import (
	"fmt"

	"dlion/internal/grad"
)

// SyncMode selects the synchronization strategy of the synch_training API.
type SyncMode int

// Synchronization strategies.
const (
	// SyncAsync proceeds to the next iteration immediately (Ako).
	SyncAsync SyncMode = iota
	// SyncFull blocks until gradients for the current iteration arrived
	// from every peer (Baseline, Gaia, DLion).
	SyncFull
	// SyncBounded proceeds once gradients arrived from all but
	// BackupWorkers peers, while never running more than Staleness
	// iterations ahead of the slowest peer (Hop).
	SyncBounded
)

// String returns the mode's name.
func (m SyncMode) String() string {
	switch m {
	case SyncAsync:
		return "async"
	case SyncFull:
		return "sync"
	case SyncBounded:
		return "bounded"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// SyncConfig parameterizes the synchronization strategy.
type SyncConfig struct {
	Mode          SyncMode
	BackupWorkers int // SyncBounded: peers that may be skipped (Hop uses 1)
	Staleness     int // SyncBounded: max iteration lead over slowest peer (Hop uses 5)
}

// DKTConfig parameterizes direct knowledge transfer (§3.4).
type DKTConfig struct {
	Enabled bool
	Period  int64   // iterations between loss sharing rounds (paper: 100)
	Lambda  float64 // merge ratio (paper: 0.75)
	// Best2Worst restricts transfer to the single worst worker instead of
	// all workers (the DKT_Best2worst variant of Figure 9b).
	Best2Worst bool
}

// BatchConfig parameterizes weighted dynamic batching (§3.2).
type BatchConfig struct {
	InitialLBS int // starting local batch size (paper: 32)

	// DynamicBatching enables the GBS and LBS controllers. When false the
	// global batch is fixed at n·InitialLBS split evenly.
	DynamicBatching bool
	// WeightedUpdate enables the db_j^k confidence coefficients of Eq. 7.
	WeightedUpdate bool

	GBS GBSConfig

	// ProfilePeriod is how often (virtual seconds) the LBS controller
	// re-profiles compute capacity and broadcasts RCP (default 60).
	ProfilePeriod float64
	// DBClampMax bounds the dynamic batching weight db_j^k = LBS_j/LBS_k to
	// [1/DBClampMax, DBClampMax] for numerical stability with extreme
	// heterogeneity (default 8; see DESIGN.md decision 4).
	DBClampMax float64
}

// GBSConfig parameterizes the GBS controller.
type GBSConfig struct {
	// Mode "auto" runs the warm-up/speed-up controller; "fixed" keeps the
	// initial GBS; "schedule" doubles GBS once DoubleAtEpoch is reached
	// (the Figure 5 exploration).
	Mode string

	WarmupAdd      int     // C_warmup: arithmetic increment (default = initial GBS)
	AdjustPeriod   float64 // virtual seconds between adjustments (default 120)
	WarmupDuration float64 // seconds before switching from warm-up to speed-up (default 600)
	DoubleAtEpoch  float64 // schedule mode: epoch at which GBS doubles
	TrainSetSize   int     // |train|, filled in by the cluster driver
}

// MembershipConfig parameterizes elastic membership: live join/leave of
// workers in a running federation, with quorum-aware graceful degradation.
// The zero value is the static-roster behavior every pre-elastic
// configuration had: the roster is 0..NumWorkers-1 forever.
type MembershipConfig struct {
	// InitialMembers is the founding roster (worker ids, must include this
	// worker). Empty means 0..NumWorkers-1 — the static-cluster default.
	// Drivers set it when some of the address space joins later.
	InitialMembers []int

	// Join marks this worker as starting outside the federation: instead of
	// training it runs the admission handshake — HELLO to Sponsor, adopt the
	// WELCOME's epoch-stamped roster and weight snapshot, announce itself to
	// the remaining members — and only then starts iterating.
	Join bool
	// Sponsor is the member the joiner sends its HELLO to, in
	// [0, NumWorkers). Drivers that resolve the sponsor at join time (e.g.
	// freshest live member) call StartJoin directly and may leave this zero
	// or negative.
	Sponsor int
	// JoinTimeout bounds the admission handshake (seconds). When no WELCOME
	// arrives in time the joiner degrades to solo training — roster of one,
	// degraded iterations — rather than wedging (default 30).
	JoinTimeout float64
	// JoinRetry is the initial HELLO retry backoff in seconds; it doubles
	// per retry, capped by the time left until JoinTimeout (default 2).
	JoinRetry float64

	// QuorumFloor is the minimum live cluster size (including self) for
	// full-fidelity operation. Below it the worker keeps training locally
	// but stops blocking on its sync strategy and counts every iteration as
	// degraded (stats + obs). 0 disables the floor.
	QuorumFloor int

	// LeaveAfterIters, when > 0, makes the worker leave gracefully — final
	// gradient exchange, tombstone broadcast, drain — after completing that
	// many iterations. It is the deterministic leave trigger the churn
	// equivalence harness uses; drivers usually call Leave instead.
	LeaveAfterIters int64
}

// QuantConfig parameterizes gradient wire precision — the precision half of
// the paper's §3.3 data quality adjustment, next to Max-N's sparsity half.
// The zero value (f32, no auto) is the exact pre-quantization behavior.
type QuantConfig struct {
	// Precision is the fixed wire precision for outgoing gradient
	// selections. Ignored when Auto is set.
	Precision grad.Precision

	// Auto derives the precision per link from the transmission speed
	// assurance budget: f32 when the budget covers a full dense f32
	// exchange, f16 when it covers half, int8 below that. Requires
	// LinkBudget (there is no per-link budget to inspect without it).
	Auto bool

	// Accept is the mask of reduced precisions this worker accepts on
	// inbound links, advertised to peers in HELLO/WELCOME. Zero defaults to
	// accept-all; peers that never handshake (static founders) are assumed
	// accept-all too, since founders share one binary by construction.
	Accept grad.PrecMask
}

// Config assembles a complete system variant.
type Config struct {
	Name         string
	LearningRate float64

	// Job labels the control-plane training job this worker belongs to
	// (empty for hand-launched clusters). It is a pure label: the lifecycle
	// manager stamps it into worker reports and error messages so one
	// broker's concurrent jobs stay attributable.
	Job string

	// NewSelector builds the per-worker gradient selector (selectors are
	// stateful, so each worker needs its own instance).
	NewSelector func() grad.Selector

	// LinkBudget enables the transmission speed assurance module: the
	// per-link byte budget BW_net_j/Iter_com_i is passed to the selector.
	LinkBudget bool

	// LivenessTimeout is the failure detector's timeout (seconds): a member
	// silent that long leaves the roster as its LEAVE would take it out,
	// and its next message re-admits it. Heartbeats keep a blocked worker
	// from being silent (Worker.watch). 0 (the default) disables the
	// detector: only HELLO and LEAVE change the roster. Set it well above
	// the longest quiet period a healthy link can have (a few iteration
	// times plus network delay).
	LivenessTimeout float64

	// OrderedApply is the deterministic-replay discipline behind signed
	// checkpoint lineage (DESIGN.md §13): instead of applying peers'
	// gradients the moment they arrive, the worker buffers them and applies
	// each round at its synchronization barrier, in (iteration, worker-id)
	// order. Float32 apply order is the only thing the two substrates (DES
	// simulator vs realtime broker) disagree on under SyncFull with fixed
	// batching, so pinning it makes the final weight bits a pure function
	// of (config, seed, steps) — bit-exactly reproducible by dlion-audit on
	// either substrate. It requires the deterministic-math subset: SyncFull,
	// no DKT, no dynamic batching, a static roster (no failure detector).
	OrderedApply bool

	// MaxIters, when > 0, stops the worker after it completes that many
	// iterations: no further batches are drawn and no further gradients are
	// generated, while incoming messages keep being applied (peers finishing
	// their own final iterations still land). 0 (the default) trains until
	// the driver's horizon. The conformance harness uses it to run the same
	// number of steps on the simulator and the realtime broker so final
	// weights are comparable.
	MaxIters int64

	Batch      BatchConfig
	Sync       SyncConfig
	DKT        DKTConfig
	Membership MembershipConfig
	Quant      QuantConfig
}

// Validate checks the configuration for programming errors.
func (c *Config) Validate() error {
	switch {
	case c.NewSelector == nil:
		return fmt.Errorf("core: %s: NewSelector is nil", c.Name)
	case c.LearningRate <= 0:
		return fmt.Errorf("core: %s: learning rate %v", c.Name, c.LearningRate)
	case c.Batch.InitialLBS < 1:
		return fmt.Errorf("core: %s: initial LBS %d", c.Name, c.Batch.InitialLBS)
	case c.DKT.Enabled && (c.DKT.Lambda < 0 || c.DKT.Lambda > 1):
		return fmt.Errorf("core: %s: DKT lambda %v", c.Name, c.DKT.Lambda)
	case c.DKT.Enabled && c.DKT.Period < 1:
		return fmt.Errorf("core: %s: DKT period %d", c.Name, c.DKT.Period)
	case c.Sync.Mode == SyncBounded && c.Sync.Staleness < 1:
		return fmt.Errorf("core: %s: staleness %d", c.Name, c.Sync.Staleness)
	case c.LivenessTimeout < 0:
		return fmt.Errorf("core: %s: liveness timeout %v", c.Name, c.LivenessTimeout)
	case c.MaxIters < 0:
		return fmt.Errorf("core: %s: max iters %d", c.Name, c.MaxIters)
	case c.Membership.JoinTimeout < 0:
		return fmt.Errorf("core: %s: join timeout %v", c.Name, c.Membership.JoinTimeout)
	case c.Membership.JoinRetry < 0:
		return fmt.Errorf("core: %s: join retry %v", c.Name, c.Membership.JoinRetry)
	case c.Membership.QuorumFloor < 0:
		return fmt.Errorf("core: %s: quorum floor %d", c.Name, c.Membership.QuorumFloor)
	case c.Membership.LeaveAfterIters < 0:
		return fmt.Errorf("core: %s: leave after iters %d", c.Name, c.Membership.LeaveAfterIters)
	case c.Membership.Join && len(c.Membership.InitialMembers) > 0:
		return fmt.Errorf("core: %s: Join and InitialMembers are mutually exclusive", c.Name)
	case !c.Quant.Precision.Valid():
		return fmt.Errorf("core: %s: quant precision %d", c.Name, c.Quant.Precision)
	case c.Quant.Auto && !c.LinkBudget:
		return fmt.Errorf("core: %s: Quant.Auto requires LinkBudget", c.Name)
	case c.Quant.Accept > grad.MaskAll:
		return fmt.Errorf("core: %s: quant accept mask %#x", c.Name, uint8(c.Quant.Accept))
	}
	if c.OrderedApply {
		switch {
		case c.Sync.Mode != SyncFull:
			return fmt.Errorf("core: %s: OrderedApply requires SyncFull", c.Name)
		case c.DKT.Enabled:
			return fmt.Errorf("core: %s: OrderedApply excludes DKT (weight merges are unordered)", c.Name)
		case c.Batch.DynamicBatching:
			return fmt.Errorf("core: %s: OrderedApply excludes dynamic batching (RCP timing is wall-clock)", c.Name)
		case c.Membership.Join || c.Membership.LeaveAfterIters > 0 || c.Membership.QuorumFloor > 0 || c.LivenessTimeout > 0:
			return fmt.Errorf("core: %s: OrderedApply requires a static roster", c.Name)
		}
	}
	return nil
}

// Fingerprint returns a canonical one-line summary of every field that
// determines the training computation — the string lineage manifests hash
// into their config commitment. Two configs with equal fingerprints run the
// same math on the same schedule (given equal seeds and worker counts);
// the presentation-only Job label is deliberately excluded.
func (c Config) Fingerprint() string {
	c = c.withDefaults()
	return fmt.Sprintf(
		"name=%s lr=%g sync=%s/%d/%d lbs=%d dyn=%t wu=%t gbs=%s dkt=%t/%d/%g "+
			"budget=%t live=%g maxiters=%d quant=%s/auto=%t ordered=%t",
		c.Name, c.LearningRate, c.Sync.Mode, c.Sync.BackupWorkers, c.Sync.Staleness,
		c.Batch.InitialLBS, c.Batch.DynamicBatching, c.Batch.WeightedUpdate,
		c.Batch.GBS.Mode, c.DKT.Enabled, c.DKT.Period, c.DKT.Lambda,
		c.LinkBudget, c.LivenessTimeout, c.MaxIters,
		c.Quant.Precision, c.Quant.Auto, c.OrderedApply)
}

// withDefaults fills zero values with the defaults documented above.
func (c Config) withDefaults() Config {
	if c.Batch.GBS.Mode == "" {
		c.Batch.GBS.Mode = "fixed"
	}
	if c.Batch.GBS.AdjustPeriod == 0 {
		c.Batch.GBS.AdjustPeriod = 120
	}
	if c.Batch.GBS.WarmupDuration == 0 {
		c.Batch.GBS.WarmupDuration = 600
	}
	if c.Batch.ProfilePeriod == 0 {
		c.Batch.ProfilePeriod = 60
	}
	if c.Batch.DBClampMax == 0 {
		c.Batch.DBClampMax = 8
	}
	if c.Membership.JoinTimeout == 0 {
		c.Membership.JoinTimeout = 30
	}
	if c.Membership.JoinRetry == 0 {
		c.Membership.JoinRetry = 2
	}
	if c.Quant.Accept == 0 {
		c.Quant.Accept = grad.MaskAll
	}
	return c
}
