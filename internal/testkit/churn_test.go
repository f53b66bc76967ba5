package testkit

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

// TestChurnEquivalence runs the same seeded SyncFull workload with a
// mid-run graceful leave on the simulator and against a live TCP broker,
// and requires the step-exact churn contract to hold on both: the leaver
// departs at exactly the configured iteration with a full gradient fan-out
// behind it, survivors spend their whole budget on the renormalized
// roster, the fan-out invariant holds on every epoch log, and — realtime
// only — not a single in-flight frame is shed on the way out.
func TestChurnEquivalence(t *testing.T) {
	cfg := ChurnConfig{N: 3, Steps: 16, Leaver: 2, LeaveAfter: 8, Seed: 7}

	sim, err := RunChurnSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckChurn(cfg, sim); err != nil {
		t.Fatalf("sim: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), budget(90*time.Second))
	defer cancel()
	rt, err := RunChurnRealtime(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckChurn(cfg, rt); err != nil {
		t.Fatalf("realtime: %v", err)
	}
	if rt.FifoDrops != 0 {
		t.Fatalf("realtime shed %d frames; a graceful leave must drop zero in-flight messages", rt.FifoDrops)
	}

	// The contract pins the leave side to the same numbers on both
	// substrates; spell the cross-substrate equalities out anyway so a
	// future loosening of CheckChurn cannot silently weaken this gate.
	if sim.Iters[cfg.Leaver] != rt.Iters[cfg.Leaver] {
		t.Fatalf("leaver iterations sim=%d realtime=%d", sim.Iters[cfg.Leaver], rt.Iters[cfg.Leaver])
	}
	if sim.Stats[cfg.Leaver].GradMsgsSent != rt.Stats[cfg.Leaver].GradMsgsSent {
		t.Fatalf("leaver fan-out sim=%d realtime=%d",
			sim.Stats[cfg.Leaver].GradMsgsSent, rt.Stats[cfg.Leaver].GradMsgsSent)
	}
	for i := 0; i < cfg.N; i++ {
		if i == cfg.Leaver {
			continue
		}
		if len(sim.Rosters[i]) != len(rt.Rosters[i]) {
			t.Fatalf("survivor %d roster sim=%v realtime=%v", i, sim.Rosters[i], rt.Rosters[i])
		}
		for k := range sim.Rosters[i] {
			if sim.Rosters[i][k] != rt.Rosters[i][k] {
				t.Fatalf("survivor %d roster sim=%v realtime=%v", i, sim.Rosters[i], rt.Rosters[i])
			}
		}
	}
}

// TestChurnConfigValidate pins the harness's own input checking.
func TestChurnConfigValidate(t *testing.T) {
	bad := []ChurnConfig{
		{N: 2, Steps: 8, Leaver: 1, LeaveAfter: 4}, // survivors must still exchange
		{N: 3, Steps: 8, Leaver: 3, LeaveAfter: 4}, // leaver out of range
		{N: 3, Steps: 8, Leaver: 0, LeaveAfter: 8}, // leave point past the budget
		{N: 3, Steps: 8, Leaver: 0, LeaveAfter: 0}, // no leave point
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad churn config %d accepted: %+v", i, c)
		}
	}
}

// TestCheckRenormalizationRejects: the invariant gate must actually bite.
func TestCheckRenormalizationRejects(t *testing.T) {
	log := []core.EpochChange{
		{Epoch: 0, Size: 3, Iter: 0, GradMsgsSent: 0, Reason: "seed"},
		{Epoch: 1, Size: 2, Iter: 8, GradMsgsSent: 16, Reason: "leave"},
	}
	if err := CheckRenormalization(log, 16, 24); err != nil {
		t.Fatalf("exact log rejected: %v", err)
	}
	if err := CheckRenormalization(log, 16, 25); err == nil {
		t.Fatal("over-count accepted")
	}
	if err := CheckRenormalization(log, 16, 23); err == nil {
		t.Fatal("under-count accepted")
	}
	if err := CheckRenormalization(nil, 0, 0); err == nil {
		t.Fatal("empty log accepted")
	}
}

// churnGoldenRun is the elastic sibling of goldenRun: 3 founders on the
// Cipher task, one worker joining a third of the way in and one founder
// leaving two thirds of the way in, fully seeded and bit-deterministic.
func churnGoldenRun(t *testing.T, sys core.Config) Golden {
	t.Helper()
	n := 4
	computes := make([]*simcompute.Compute, n)
	for i := range computes {
		cap := []float64{12, 9, 15, 12}[i]
		computes[i] = simcompute.New(simcompute.Constant(cap),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	res, err := cluster.Run(cluster.Config{
		System: sys,
		Model:  nn.CipherSpec(1, 8, 8, 3, 0),
		Data: data.Config{Name: "golden", NumClasses: 3, Train: 240, Test: 60,
			Channels: 1, Height: 8, Width: 8, Noise: 0.35, Jitter: 0, Bumps: 3,
			Seed: goldenSeed},
		N:          n,
		Computes:   computes,
		Network:    simnet.Uniform(n, simcompute.Constant(200), 0.001),
		Horizon:    36,
		EvalPeriod: 12,
		EvalSubset: 60,
		EvalBatch:  30,
		Seed:       goldenSeed,
		Faults: &fault.Schedule{
			Joins:  []fault.Join{{Worker: 3, At: 12, Sponsor: 0}},
			Leaves: []fault.Leave{{Worker: 1, At: 24}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return GoldenFromResult(sys.Name, goldenSeed, res)
}

// TestGoldenConvergenceUnderChurn gates the elastic scenario against a
// committed snapshot: a join and a leave mid-run must not move convergence
// beyond the same tolerances the static goldens use. Regenerate
// deliberately with -update-golden, like the static snapshots.
func TestGoldenConvergenceUnderChurn(t *testing.T) {
	got := churnGoldenRun(t, systems.DLion())
	path := filepath.Join("testdata", "golden", "dlion-churn.json")
	if *updateGolden {
		if err := SaveGolden(path, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d points, final acc %.3f)",
			path, len(got.Points), got.Points[len(got.Points)-1].Acc)
		return
	}
	want, err := LoadGolden(path)
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing %s; regenerate with -update-golden", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareGolden(want, got, GoldenTol{}); err != nil {
		t.Fatal(err)
	}
}
