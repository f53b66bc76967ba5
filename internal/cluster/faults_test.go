package cluster

import (
	"testing"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/fault"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

// chaosConfig is a 6-worker cluster sized for churn experiments: enough
// horizon that crashed workers get a meaningful post-restart life.
func chaosConfig(sys core.Config) Config {
	dc := data.Config{Name: "chaos", NumClasses: 4, Train: 600, Test: 150,
		Channels: 1, Height: 8, Width: 8, Noise: 0.5, Jitter: 1, Bumps: 3, Seed: 5}
	comps := make([]*simcompute.Compute, 6)
	for i := range comps {
		comps[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	return Config{
		System:     sys,
		Model:      nn.CipherSpec(1, 8, 8, 4, 0),
		Data:       dc,
		N:          6,
		Computes:   comps,
		Network:    simnet.Uniform(6, simcompute.Constant(200), 0.001),
		Horizon:    120,
		EvalPeriod: 30,
		Seed:       9,
	}
}

func chaosSystem() core.Config {
	sys := systems.DLion()
	sys.LivenessTimeout = 3
	return sys
}

// TestChaosChurnConverges is the acceptance chaos scenario: two of six
// workers crash mid-training and restart from checkpoints, and one link is
// partitioned for 30 virtual seconds — yet the run must converge within 5%
// of the fault-free run's final accuracy.
func TestChaosChurnConverges(t *testing.T) {
	clean, err := Run(chaosConfig(chaosSystem()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(chaosSystem())
	cfg.Faults = &fault.Schedule{
		CheckpointPeriod: 10,
		Crashes: []fault.Crash{
			{Worker: 1, At: 30, RestartAfter: 15},
			{Worker: 4, At: 45, RestartAfter: 20},
		},
		Partitions: []fault.Partition{
			{From: 2, To: 3, Bidirectional: true, Window: fault.Window{Start: 40, End: 70}},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanAcc, faultAcc := clean.Timeline.FinalMean(), res.Timeline.FinalMean()
	if faultAcc < cleanAcc*0.95 {
		t.Fatalf("faulty run accuracy %.3f, fault-free %.3f: degradation > 5%%",
			faultAcc, cleanAcc)
	}
	if res.Faults.Crashes != 2 || res.Faults.Restarts != 2 {
		t.Fatalf("fault counters %+v, want 2 crashes and 2 restarts", res.Faults)
	}
	if res.Faults.Partitioned == 0 {
		t.Fatal("the 30s partition dropped no messages")
	}
	// crashed workers rejoined and kept iterating
	for _, i := range []int{1, 4} {
		if res.Iters[i] < clean.Iters[i]/3 {
			t.Fatalf("restarted worker %d made only %d iterations (fault-free %d)",
				i, res.Iters[i], clean.Iters[i])
		}
	}
	// delivered-only accounting: a run that dropped traffic must not charge
	// more bytes than its fault-free twin
	if res.TotalBytes >= clean.TotalBytes {
		t.Fatalf("faulty TotalBytes %d >= fault-free %d: drops were charged",
			res.TotalBytes, clean.TotalBytes)
	}
}

// TestCrashRestartBeatsNoRestart pins down that the restart path actually
// runs: with a restart the crashed worker keeps accumulating iterations.
func TestCrashRestartBeatsNoRestart(t *testing.T) {
	dead := chaosConfig(chaosSystem())
	dead.Faults = &fault.Schedule{
		CheckpointPeriod: 10,
		Crashes:          []fault.Crash{{Worker: 1, At: 30}}, // never returns
	}
	rd, err := Run(dead)
	if err != nil {
		t.Fatal(err)
	}
	revived := chaosConfig(chaosSystem())
	revived.Faults = &fault.Schedule{
		CheckpointPeriod: 10,
		Crashes:          []fault.Crash{{Worker: 1, At: 30, RestartAfter: 10}},
	}
	rr, err := Run(revived)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Iters[1] <= rd.Iters[1] {
		t.Fatalf("restarted worker should out-iterate a dead one: %d vs %d",
			rr.Iters[1], rd.Iters[1])
	}
	if rd.Faults.Restarts != 0 || rr.Faults.Restarts != 1 {
		t.Fatalf("restart counters: dead %+v revived %+v", rd.Faults, rr.Faults)
	}
	if rd.Faults.DeadDrops == 0 {
		t.Fatal("traffic to the dead worker should be counted as dead drops")
	}
}

// TestFullPartitionDeliversNothing: with every link partitioned for the
// whole run, TotalBytes must be exactly zero — the accounting counts only
// delivered messages, not attempted sends.
func TestFullPartitionDeliversNothing(t *testing.T) {
	cfg := tinyConfig(systems.Ako(1))
	cfg.Faults = &fault.Schedule{Partitions: []fault.Partition{
		{From: fault.Any, To: fault.Any},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 0 {
		t.Fatalf("TotalBytes %d on a fully partitioned network", res.TotalBytes)
	}
	if res.Faults.Partitioned == 0 {
		t.Fatal("no partition drops recorded")
	}
	if res.Iters[0] < 5 {
		t.Fatal("async workers should keep training locally")
	}
}

// TestZeroBandwidthActsAsPartition: a bw <= 0 link must drop traffic (and
// charge nothing), as a partition does.
func TestZeroBandwidthActsAsPartition(t *testing.T) {
	cfg := tinyConfig(systems.Ako(1))
	cfg.Network = simnet.Uniform(4, simcompute.Constant(0), 0.001)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 0 {
		t.Fatalf("TotalBytes %d across dead links", res.TotalBytes)
	}
	if res.Iters[0] < 5 {
		t.Fatal("async workers should keep training locally")
	}
}

// TestInjectedLossReducesDeliveredBytes: random loss drops roughly its rate
// of the traffic from the delivered-bytes ledger.
func TestInjectedLossReducesDeliveredBytes(t *testing.T) {
	clean, err := Run(tinyConfig(systems.Ako(1)))
	if err != nil {
		t.Fatal(err)
	}
	lossy := tinyConfig(systems.Ako(1))
	lossy.Faults = &fault.Schedule{Seed: 11, Loss: []fault.Loss{
		{From: fault.Any, To: fault.Any, Rate: 0.5},
	}}
	res, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Lost == 0 {
		t.Fatal("no loss recorded")
	}
	perIterClean := float64(clean.TotalBytes) / float64(clean.Iters[0])
	perIterLossy := float64(res.TotalBytes) / float64(res.Iters[0])
	if perIterLossy >= perIterClean*0.85 {
		t.Fatalf("50%% loss barely moved delivered bytes/iter: %.0f vs %.0f",
			perIterLossy, perIterClean)
	}
}

// TestCorruptionIsDropped: rate-1 corruption delivers nothing but still
// lets async training proceed locally.
func TestCorruptionIsDropped(t *testing.T) {
	cfg := tinyConfig(systems.Ako(1))
	cfg.Faults = &fault.Schedule{Corruption: []fault.Corrupt{
		{From: fault.Any, To: fault.Any, Rate: 1},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 0 {
		t.Fatalf("TotalBytes %d with rate-1 corruption", res.TotalBytes)
	}
	if res.Faults.Corrupted == 0 {
		t.Fatal("no corruption recorded")
	}
}

// TestInjectedDelayStillDelivers: delayed messages arrive and are charged.
func TestInjectedDelayStillDelivers(t *testing.T) {
	cfg := tinyConfig(systems.Ako(1))
	cfg.Faults = &fault.Schedule{Delays: []fault.Delay{
		{From: fault.Any, To: fault.Any, Extra: 0.2},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes == 0 {
		t.Fatal("delayed messages must still be delivered")
	}
	if res.Faults.Delayed == 0 {
		t.Fatal("no delays recorded")
	}
}

// TestFaultScheduleValidation: invalid schedules are rejected up front.
func TestFaultScheduleValidation(t *testing.T) {
	cfg := tinyConfig(systems.Baseline())
	cfg.Faults = &fault.Schedule{Crashes: []fault.Crash{{Worker: 99, At: 1}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range crash worker must error")
	}
}

// TestSyncSurvivesCrashWithLiveness: a SyncFull cluster normally deadlocks
// when a peer dies mid-run; with liveness tracking the survivors declare it
// dead and keep the barrier among themselves.
func TestSyncSurvivesCrashWithLiveness(t *testing.T) {
	sys := systems.Baseline() // SyncFull
	sys.LivenessTimeout = 3
	cfg := tinyConfig(sys)
	cfg.Faults = &fault.Schedule{Crashes: []fault.Crash{{Worker: 2, At: 20}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// survivors must make clear progress after the crash at t=20 of a
	// 60-second run; a deadlocked barrier would freeze them near the
	// crash-time count
	clean, err := Run(tinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters[0] < clean.Iters[0]/2 {
		t.Fatalf("survivor froze after peer crash: %d vs fault-free %d",
			res.Iters[0], clean.Iters[0])
	}
}
