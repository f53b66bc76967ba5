// Package systems wires the five evaluated systems — Baseline, Ako, Gaia,
// Hop, and DLion — as configurations of the shared worker in internal/core,
// the same way the prototype emulated them inside the DLion framework with
// a handful of changed lines per system (Table 1). The plugin surface is
// exactly the paper's two APIs: the partial-gradient selector
// (generate_partial_gradients) and the synchronization strategy
// (synch_training).
package systems

import (
	"fmt"
	"strings"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
)

// Defaults shared by every preset (overridable on the returned Config).
const (
	// DefaultLBS is the initial local batch size (paper: 32).
	DefaultLBS = 32
	// DefaultLR is the SGD learning rate used in all experiments,
	// calibrated so plain synchronous SGD is stable on the synthetic task
	// at the full global batch size.
	DefaultLR = 0.02
)

// Baseline exchanges whole gradients with all workers every iteration,
// synchronously (§5.1.4 system 1).
func Baseline() core.Config {
	return core.Config{
		Name:         "Baseline",
		LearningRate: DefaultLR,
		NewSelector:  func() grad.Selector { return grad.Full{} },
		Batch:        core.BatchConfig{InitialLBS: DefaultLBS},
		Sync:         core.SyncConfig{Mode: core.SyncFull},
	}
}

// Ako partitions gradients and sends one accumulated partition per peer
// per iteration, training asynchronously (§5.1.4 system 2). The paper's
// Ako sizes partitions from network and compute capacity; P is that knob.
func Ako(partitions int) core.Config {
	return core.Config{
		Name:         "Ako",
		LearningRate: DefaultLR,
		NewSelector:  func() grad.Selector { return grad.NewAko(partitions) },
		Batch:        core.BatchConfig{InitialLBS: DefaultLBS},
		Sync:         core.SyncConfig{Mode: core.SyncAsync},
	}
}

// Gaia exchanges only gradients whose accumulated relative change exceeds
// the significance threshold S percent, blocking each iteration until the
// significant gradients reached all workers (§5.1.4 system 3; S=1 in the
// paper's evaluation).
func Gaia(s float64) core.Config {
	return core.Config{
		Name:         "Gaia",
		LearningRate: DefaultLR,
		NewSelector:  func() grad.Selector { return grad.NewGaia(s) },
		Batch:        core.BatchConfig{InitialLBS: DefaultLBS},
		Sync:         core.SyncConfig{Mode: core.SyncFull},
	}
}

// Hop exchanges whole gradients but advances past stragglers using backup
// workers under a staleness bound (§5.1.4 system 4; backup=1, staleness=5
// in the paper's evaluation).
func Hop(backupWorkers, staleness int) core.Config {
	return core.Config{
		Name:         "Hop",
		LearningRate: DefaultLR,
		NewSelector:  func() grad.Selector { return grad.Full{} },
		Batch:        core.BatchConfig{InitialLBS: DefaultLBS},
		Sync: core.SyncConfig{Mode: core.SyncBounded,
			BackupWorkers: backupWorkers, Staleness: staleness},
	}
}

// DLion enables all three techniques: weighted dynamic batching (GBS/LBS
// controllers + weighted update), per-link prioritized gradient exchange
// (Max N with the transmission-speed-assurance budget, min N = 0.85), and
// direct knowledge transfer (period 100, λ = 0.75) — the §5.1.4 settings.
// Training is asynchronous: the dynamic batching controllers equalize
// iteration times, and DKT bounds replica divergence, so DLion does not
// need a barrier. The harness scales the DKT period with the experiment's
// iteration count (period 100 assumes the paper's multi-thousand-iteration
// runs).
func DLion() core.Config {
	return core.Config{
		Name:         "DLion",
		LearningRate: DefaultLR,
		NewSelector:  func() grad.Selector { return grad.NewMaxN(100) },
		LinkBudget:   true,
		Batch: core.BatchConfig{
			InitialLBS:      DefaultLBS,
			DynamicBatching: true,
			WeightedUpdate:  true,
			GBS:             core.GBSConfig{Mode: "auto"},
		},
		Sync: core.SyncConfig{Mode: core.SyncAsync},
		DKT:  core.DKTConfig{Enabled: true, Period: 100, Lambda: 0.75},
	}
}

// DLionNoDBWU is the Figure 14 ablation without dynamic batching or
// weighted updates (fixed even LBS).
func DLionNoDBWU() core.Config {
	c := DLion()
	c.Name = "DLion-no-DBWU"
	c.Batch.DynamicBatching = false
	c.Batch.WeightedUpdate = false
	c.Batch.GBS = core.GBSConfig{Mode: "fixed"}
	return c
}

// DLionNoWU is the Figure 14 ablation with dynamic batching but without
// weighted model updates.
func DLionNoWU() core.Config {
	c := DLion()
	c.Name = "DLion-no-WU"
	c.Batch.WeightedUpdate = false
	return c
}

// DLionQuant is DLion with the wire precision engaged as a second per-link
// data-quality lever next to Max-N: the budget that already sizes each
// link's selection now also picks the cheapest precision it justifies
// (f32 → f16 → int8; see WIRE.md's precision/bandwidth model).
func DLionQuant() core.Config {
	c := DLion()
	c.Name = "DLion-quant"
	c.Quant = core.QuantConfig{Auto: true}
	return c
}

// WithQuant applies a wire-precision mode to a preset: "i8" or "f16" fix
// the precision on every link, "auto" lets the link budget choose (forcing
// LinkBudget on, which auto requires), and "" returns c unchanged. The
// system name gains a "-quant-<mode>" suffix so reports and golden gates
// distinguish quantized runs.
func WithQuant(c core.Config, mode string) (core.Config, error) {
	switch strings.ToLower(mode) {
	case "":
		return c, nil
	case "i8", "int8":
		c.Quant = core.QuantConfig{Precision: grad.PrecI8}
	case "f16":
		c.Quant = core.QuantConfig{Precision: grad.PrecF16}
	case "auto":
		c.Quant = core.QuantConfig{Auto: true}
		c.LinkBudget = true
	default:
		return c, fmt.Errorf("systems: unknown quant mode %q (want i8, f16, auto)", mode)
	}
	c.Name += "-quant-" + strings.ToLower(mode)
	return c, nil
}

// ForJob resolves a control-plane job's (system, quant) pair into a worker
// config scoped to that job: the preset is looked up by name, the wire
// precision applied, the iteration budget pinned to maxIters, and the
// config labelled with the job id (Config.Job, plus a "@<job>" suffix on
// the name so logs and reports from concurrent jobs stay attributable).
// DKT's sharing period is clamped to maxIters/2 — the presets assume the
// paper's multi-thousand-iteration runs, and an unclamped period would
// silently disable DKT on short jobs.
func ForJob(system, quant, job string, maxIters int64) (core.Config, error) {
	c, err := ByName(system)
	if err != nil {
		return core.Config{}, err
	}
	if c, err = WithQuant(c, quant); err != nil {
		return core.Config{}, err
	}
	c.MaxIters = maxIters
	if c.DKT.Enabled && maxIters > 0 && c.DKT.Period > maxIters/2 {
		c.DKT.Period = maxIters / 2
		if c.DKT.Period < 1 {
			c.DKT.Period = 1
		}
	}
	if job != "" {
		c.Job = job
		c.Name += "@" + job
	}
	return c, nil
}

// DefaultScale and DefaultSeed name the workload a worker, a dlion-serve
// and a control-plane job use when given no scale or seed.
const DefaultScale, DefaultSeed = 0.02, 7

// Workload is the training workload a cluster's (scale, seed) names. Its
// workers, a -job worker and the dlion-serve restoring their checkpoints
// must agree on it, so all of them derive it here.
type Workload struct {
	Data data.Config // the synthetic CIFAR-10 stand-in, generated from seed+13
	Spec nn.Spec     // the Cipher model; every replica initialises from seed+1000
	Seed uint64      // shuffles the training set into the workers' shards
}

// NewWorkload returns the workload (scale, seed) names.
func NewWorkload(scale float64, seed uint64) Workload {
	dc := data.CIFAR10Config(scale, seed+13)
	return Workload{dc, nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, seed+1000), seed}
}

// Shards generates the dataset and shards its training set across slots.
func (w Workload) Shards(slots int) (shards []*data.Shard, test *data.Dataset, err error) {
	train, test, err := data.Generate(w.Data)
	if err == nil {
		shards, err = data.Partition(train, slots, w.Seed)
	}
	return shards, test, err
}

// Founders returns the founding roster [0, n), leaving ids from n on to joiners.
func Founders(n int) []int {
	roster := make([]int, n)
	for i := range roster {
		roster[i] = i
	}
	return roster
}

// MaxNOnly runs the Max N selector with a fixed N and nothing else from
// DLion — no dynamic batching, no link budget, no DKT (the Figure 16
// "Max10" configuration when n=10).
func MaxNOnly(n float64) core.Config {
	return core.Config{
		Name:         fmt.Sprintf("Max%g", n),
		LearningRate: DefaultLR,
		NewSelector:  func() grad.Selector { return grad.NewMaxN(n) },
		Batch:        core.BatchConfig{InitialLBS: DefaultLBS},
		Sync:         core.SyncConfig{Mode: core.SyncFull},
	}
}

// All returns the five paper systems with their evaluation settings.
func All() []core.Config {
	return []core.Config{Baseline(), Ako(4), Gaia(1), Hop(1, 5), DLion()}
}

// ByName resolves a system name (case-insensitive) to its preset.
func ByName(name string) (core.Config, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return Baseline(), nil
	case "ako":
		return Ako(4), nil
	case "gaia":
		return Gaia(1), nil
	case "hop":
		return Hop(1, 5), nil
	case "dlion":
		return DLion(), nil
	case "dlion-no-dbwu":
		return DLionNoDBWU(), nil
	case "dlion-no-wu":
		return DLionNoWU(), nil
	case "dlion-quant":
		return DLionQuant(), nil
	case "max10":
		return MaxNOnly(10), nil
	default:
		return core.Config{}, fmt.Errorf("systems: unknown system %q", name)
	}
}
