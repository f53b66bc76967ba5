package main

import (
	"fmt"

	"dlion/internal/core"
	"dlion/internal/queue"
	"dlion/internal/systems"
)

// workerFlags holds every dlion-worker flag that needs validation; run
// parses them straight into it, so the checks are one testable unit.
type workerFlags struct {
	ID       int
	Workers  int
	Broker   string
	System   string
	Quant    string
	Job      string
	Scale    float64
	Join     bool
	Sponsor  int
	Founders int
	Quorum   int
}

// validate rejects malformed flag combinations with one-line errors, and on
// success returns the resolved system config (preset + quant + job label).
func (f workerFlags) validate() (core.Config, error) {
	switch {
	case f.Broker == "":
		return core.Config{}, fmt.Errorf("-broker is empty; give the broker address")
	case f.Workers < 1:
		return core.Config{}, fmt.Errorf("-workers %d; need at least 1", f.Workers)
	case f.ID < 0 || f.ID >= f.Workers:
		return core.Config{}, fmt.Errorf("-id %d outside [0,%d)", f.ID, f.Workers)
	case f.Quorum < 0:
		return core.Config{}, fmt.Errorf("-quorum %d is negative", f.Quorum)
	case f.Founders < 0:
		return core.Config{}, fmt.Errorf("-founders %d is negative", f.Founders)
	case f.Founders > f.Workers:
		return core.Config{}, fmt.Errorf("-founders %d exceeds -workers %d", f.Founders, f.Workers)
	case f.Join && f.Founders > 0:
		return core.Config{}, fmt.Errorf("-join and -founders are mutually exclusive (a joiner is not a founder)")
	case f.Join && (f.Sponsor < 0 || f.Sponsor >= f.Workers):
		return core.Config{}, fmt.Errorf("-sponsor %d outside [0,%d)", f.Sponsor, f.Workers)
	case f.Join && f.Sponsor == f.ID:
		return core.Config{}, fmt.Errorf("-sponsor %d is this worker; name a running member", f.Sponsor)
	case f.Scale < 0.001 || f.Scale > 1:
		return core.Config{}, fmt.Errorf("-scale %g outside [0.001,1]", f.Scale)
	case f.Job != "" && !queue.ValidJobID(f.Job):
		return core.Config{}, fmt.Errorf("-job %q is not a valid job id", f.Job)
	}
	// Resolve the preset, precision, and job label in one step so a typo in
	// -system or -quant is caught before any network traffic.
	sys, err := systems.ForJob(f.System, f.Quant, f.Job, 0)
	if err != nil {
		return core.Config{}, err
	}
	return sys, nil
}

// namespace returns the broker key namespace this worker's traffic lives
// in: the root namespace for hand-launched clusters, or the job's own
// namespace when attaching to a control-plane job with -job.
func (f workerFlags) namespace() queue.Namespace {
	if f.Job == "" {
		return queue.Namespace("")
	}
	return queue.JobNamespace(f.Job)
}
