// Package simcompute models worker compute capacity over virtual time. It
// substitutes for the paper's physical heterogeneity (different CPU core
// counts, p2.xlarge vs p2.8xlarge GPU instances) and its dynamism emulation
// (the Linux `stress` tool): capacity is a piecewise-constant schedule, and
// an iteration cost model converts (batch size, capacity) into virtual
// seconds.
package simcompute

import (
	"fmt"

	"dlion/internal/stats"
)

// Schedule is a piecewise-constant function of time. Steps must be sorted
// by time; the value before the first step is the first step's value.
type Schedule struct {
	Times  []float64 // step start times, ascending; Times[0] is typically 0
	Values []float64 // value from Times[i] until Times[i+1]
}

// Constant returns a schedule that always yields v.
func Constant(v float64) Schedule {
	return Schedule{Times: []float64{0}, Values: []float64{v}}
}

// Steps builds a schedule from (time, value) pairs. It panics on malformed
// input (odd length, unsorted times, empty) since schedules are authored in
// code as experiment configs.
func Steps(pairs ...float64) Schedule {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		panic("simcompute: Steps needs non-empty (time, value) pairs")
	}
	s := Schedule{}
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 && pairs[i] <= s.Times[len(s.Times)-1] {
			panic(fmt.Sprintf("simcompute: step times not ascending at %v", pairs[i]))
		}
		s.Times = append(s.Times, pairs[i])
		s.Values = append(s.Values, pairs[i+1])
	}
	return s
}

// At returns the schedule's value at time t.
func (s Schedule) At(t float64) float64 {
	if len(s.Times) == 0 {
		return 0
	}
	v := s.Values[0]
	for i, st := range s.Times {
		if t < st {
			break
		}
		v = s.Values[i]
	}
	return v
}

// CostModel converts a batch into iteration seconds:
//
//	seconds = Overhead + PerSample·batch/capacity
//
// Overhead covers the fixed per-iteration work (framework dispatch, model
// update); PerSample is the cost of one training sample on one capacity
// unit (a CPU core, or 1/30th of a GPU — see GPUUnit).
type CostModel struct {
	Overhead  float64
	PerSample float64
	// Jitter, if > 0, multiplies each measurement by (1 ± Jitter·|N(0,1)|
	// clamped), modeling OS noise. Profiling still recovers the trend via
	// regression, exactly as the real LBS controller must.
	Jitter float64
}

// GPUUnit is the capacity of one GPU expressed in CPU-core units. Chosen so
// the simulated GPU cluster reproduces the paper's regime where
// computation far outpaces the network: p2.xlarge ≈ 30 cores,
// p2.8xlarge ≈ 240 cores.
const GPUUnit = 30.0

// Compute is one worker's compute resource: a capacity schedule plus a cost
// model and an optional noise stream.
type Compute struct {
	Capacity Schedule
	Cost     CostModel
	rng      *stats.RNG
}

// New builds a Compute with the given schedule and cost model. seed feeds
// the jitter stream; workers should use distinct seeds.
func New(capacity Schedule, cost CostModel, seed uint64) *Compute {
	return &Compute{Capacity: capacity, Cost: cost, rng: stats.NewRNG(seed)}
}

// IterTime returns the virtual seconds one training iteration over batch
// samples takes at time t. batch must be >= 1; zero capacity is treated as
// a minimal 0.01 units so a fully-stressed worker crawls instead of
// dividing by zero.
func (c *Compute) IterTime(batch int, t float64) float64 {
	if batch < 1 {
		panic("simcompute: IterTime with batch < 1")
	}
	cap := c.Capacity.At(t)
	if cap <= 0 {
		cap = 0.01
	}
	base := c.Cost.Overhead + c.Cost.PerSample*float64(batch)/cap
	if c.Cost.Jitter > 0 {
		n := c.rng.NormFloat64() * c.Cost.Jitter
		if n > 0.5 {
			n = 0.5
		}
		if n < -0.5 {
			n = -0.5
		}
		base *= 1 + n
	}
	return base
}

// Profile measures iteration time at each batch size in batches (at time
// t), returning parallel slices suitable for linear regression. This is
// the measurement the LBS controller performs instead of reading hardware
// specs (§3.2).
func (c *Compute) Profile(batches []int, t float64) (x, y []float64) {
	x = make([]float64, len(batches))
	y = make([]float64, len(batches))
	for i, b := range batches {
		x[i] = float64(b)
		y[i] = c.IterTime(b, t)
	}
	return x, y
}
