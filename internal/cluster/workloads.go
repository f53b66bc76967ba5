package cluster

// Canonical DES throughput workloads, shared by BenchmarkSimEvents (via
// `make bench-sim`) and the dlion-bench -sim profiling mode so both measure
// exactly the same configurations.

import (
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

// SimEventsConfig sizes one DES throughput workload: n DLion workers on the
// tiny Cipher task over a short horizon on a flat 200 Mbps mesh, evaluated
// on a 60-sample subset at t = 0 and at the horizon. Both evaluations run
// inside every cluster.Run and so inside the measured window (the one at
// the horizon is about a quarter of a 256-worker federation's samples).
// With churn, the last slot joins a third of the way in and one founder
// leaves at two thirds — pricing the membership machinery (handshake,
// tombstones, renormalization) against the static baseline.
func SimEventsConfig(n int, churn bool) Config {
	dc := data.Config{Name: "bench-events", NumClasses: 3, Train: 2048, Test: 256,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 11}
	comps := make([]*simcompute.Compute, n)
	for i := range comps {
		comps[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	const horizon = 8
	cfg := Config{
		System:     systems.DLion(),
		Model:      nn.CipherSpec(1, 8, 8, 3, 0),
		Data:       dc,
		N:          n,
		Computes:   comps,
		Network:    simnet.Uniform(n, simcompute.Constant(200), 0.001),
		Horizon:    horizon,
		EvalPeriod: horizon,
		EvalSubset: 60,
		EvalBatch:  30,
		Seed:       13,
	}
	if churn {
		cfg.Faults = &fault.Schedule{
			Joins:  []fault.Join{{Worker: n - 1, At: horizon * 0.3, Sponsor: 0}},
			Leaves: []fault.Leave{{Worker: 1, At: horizon * 0.6}},
		}
	}
	return cfg
}

// FederationConfig sizes one fleet-scale DES workload: n workers spread
// over four micro-clouds (simnet.HierarchicalUniform — gigabit LAN meshes
// inside each cloud, a shared 100 Mbps WAN tier between them), a shorter
// horizon than the flat workloads so the thousand-worker size stays
// benchable, and SimEventsConfig's evaluations, which run inside the
// measured window. n must divide into 4 clouds.
func FederationConfig(n int) Config {
	cfg := SimEventsConfig(n, false)
	const clouds = 4
	if n%clouds != 0 {
		panic("cluster: federation workload size must divide into 4 clouds")
	}
	cfg.Network = simnet.HierarchicalUniform(clouds, n/clouds, 1000, 100, 0.0002, 0.03)
	cfg.Horizon = 2
	cfg.EvalPeriod = 2
	return cfg
}
