package main

import (
	"fmt"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/data"
	"dlion/internal/obs"
	"dlion/internal/systems"
)

// simWarmWorkers sizes the warm-up federation run that is part of set-up:
// large enough to grow the heap and fill the tensor pools, a tenth of the
// cost of a timed Run.
const simWarmWorkers = 64

// simConfig is the full DLion preset on a four-cloud federation of n
// workers, with every seed (data, partition, replica init) taken from seed.
func simConfig(n int, seed uint64) cluster.Config {
	cfg := cluster.FederationConfig(n)
	cfg.Seed = seed
	cfg.Data.Seed = seed + 7
	return cfg
}

// runSim runs sim_fed256: sz.timed back-to-back cluster.Run calls, each one
// round of the federation. A Run is a segment, and a latency sample.
func runSim(seed uint64, sz size, traced bool) (*outcome, error) {
	out := newOutcome("sim_fed256", traced)
	var setups []float64
	from := setupFrom()
	for i := 0; i < setupRepeats; i++ {
		if _, err := cluster.Run(simConfig(sz.simWarm, seed+100)); err != nil {
			return nil, fmt.Errorf("sim_fed256: warm-up: %w", err)
		}
		now := time.Now()
		setups = append(setups, now.Sub(from).Seconds())
		from = now
	}

	type runStat struct {
		wall       float64
		iters      int64
		events     uint64
		deliveries int64
		bytes      int64
	}
	var runs []runStat
	phases := make([]float64, obs.NumPhases)
	var lossFinal float64
	start := mark()
	marks := []procMark{start}
	for r := 0; r < sz.timed; r++ {
		cfg := simConfig(sz.simWorkers, seed+uint64(r))
		cfg.Observe = traced
		var rs runStat
		t0 := time.Now()
		res, err := cluster.Run(cfg)
		t1 := time.Now()
		rs.wall = t1.Sub(t0).Seconds()
		marks = append(marks, mark())
		out.attempted += int64(sz.simWorkers)
		if err != nil {
			out.fail(int64(sz.simWorkers), "Run %d: %v", r, err)
			runs = append(runs, rs)
			continue
		}
		idle := int64(0)
		for _, it := range res.Iters {
			rs.iters += it
			if it == 0 {
				idle++
			}
		}
		if idle > 0 {
			out.fail(idle, "Run %d: %d workers completed no iteration", r, idle)
		}
		if sz.simWorkers == 256 && rs.iters != 256 {
			out.fail(1, "Run %d: %d worker-iterations, want 256 (one round)", r, rs.iters)
		}
		for _, st := range res.Stats {
			rs.deliveries += st.MsgsRecvd
		}
		rs.events, rs.bytes = res.Events, res.TotalBytes
		for _, wr := range res.Obs {
			for p := obs.Phase(0); p < obs.NumPhases; p++ {
				phases[p] += wr.Phases[p.String()]
			}
		}
		if n := len(res.Timeline); n > 0 {
			lossFinal = res.Timeline[n-1].Loss
		}
		runs = append(runs, rs)
		out.spans = append(out.spans, span{Layer: "cluster", Name: "run", ID: int64(r), Parent: -1,
			Start: t0.Sub(start.at).Nanoseconds(), End: t1.Sub(start.at).Nanoseconds()})
	}
	end := marks[len(marks)-1]

	var ops, bytes, deliveries int64
	var events uint64
	var walls, rates []float64
	for _, rs := range runs {
		ops += rs.iters
		bytes += rs.bytes
		events += rs.events
		deliveries += rs.deliveries
		walls = append(walls, rs.wall*1e3)
		if rs.wall > 0 {
			rates = append(rates, float64(rs.iters)/rs.wall)
		}
	}
	if ops == 0 {
		return out, nil
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = median(rates)
	out.e2e["lat_p50_ms"] = percentile(walls, 0.50)
	out.latP99 = percentile(walls, 0.99)
	out.e2e["alloc_mb_per_kop"] = allocMBPerKop(marks, int64(sz.simWorkers))
	out.e2e["wire_kb_per_op"] = float64(bytes) / 1e3 / float64(ops)
	out.wireBytes = bytes
	out.lossFinal = lossFinal
	fmt.Printf("sim_fed256: Result.TotalBytes %d over %d Runs (recorded for seed 1: %d)\n",
		bytes, len(runs), referenceSimBytes)

	if !traced {
		return out, nil
	}
	m := out.layer
	procLayer(m, start, end, ops)
	setPhaseShares(m, phases)
	m["core.loss_final"] = lossFinal
	m["core.msgs_per_op"] = float64(deliveries) / float64(ops)

	// The sim's own model and batch size, called directly: what one
	// simulated iteration costs in real math.
	cfg := simConfig(sz.simWorkers, seed)
	spec := cfg.Model
	spec.Seed = seed + 1000
	t0 := time.Now()
	train, _, err := data.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	m["data.generate_s"] = time.Since(t0).Seconds()
	shards, err := data.Partition(train, 1, seed)
	if err != nil {
		return nil, err
	}
	probeModel(m, spec, shards[0], systems.DefaultLBS)
	probeSimclock(m)

	wall := end.at.Sub(start.at).Seconds()
	mathS := float64(ops) * m["nn.train_step_ms"] / 1e3
	m["cluster.lat_p99_ms"] = out.latP99
	m["cluster.events_per_s"] = float64(events) / wall
	m["cluster.events_per_op"] = float64(events) / float64(ops)
	m["cluster.model_math_share"] = mathS / wall
	if deliveries > 0 {
		m["cluster.deliver_us"] = (wall - mathS) * 1e6 / float64(deliveries)
	}
	m["cluster.alloc_mb_per_run"] = float64(end.totalAlloc-start.totalAlloc) / 1e6 / float64(len(runs))
	m["cluster.gc_count"] = float64(end.numGC - start.numGC)
	return out, nil
}
