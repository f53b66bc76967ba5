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

// Elastic membership over the simulator: declarative Join/Leave schedule
// entries, dormant joiners, sponsor resolution, and renormalization of the
// gradient fan-out at every epoch boundary.

// elasticConfig is an 8-slot cluster: ids 0..5 found the federation, 6..7
// are reserved for mid-run joiners.
func elasticConfig(sys core.Config) Config {
	dc := data.Config{Name: "elastic", NumClasses: 4, Train: 600, Test: 150,
		Channels: 1, Height: 8, Width: 8, Noise: 0.5, Jitter: 1, Bumps: 3, Seed: 5}
	comps := make([]simcompute.Compute, 8)
	for i := range comps {
		comps[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	return Config{
		System:     sys,
		Model:      nn.CipherSpec(1, 8, 8, 4, 0),
		Data:       dc,
		N:          8,
		Computes:   comps,
		Network:    simnet.Uniform(8, simcompute.Constant(200), 0.001),
		Horizon:    120,
		EvalPeriod: 30,
		Seed:       9,
	}
}

// assertRenormalization checks the exact fan-out invariant over one
// worker's membership log: between consecutive epoch entries the worker
// sent exactly ΔIter·(Size-1) gradient messages, Size being the roster the
// earlier entry established.
func assertRenormalization(t *testing.T, id int, log []core.EpochChange, final core.Stats, finalIters int64) {
	t.Helper()
	if len(log) == 0 {
		t.Fatalf("worker %d has no membership log", id)
	}
	check := func(prev core.EpochChange, iters, grads int64, upto string) {
		want := prev.GradMsgsSent + (iters-prev.Iter)*int64(prev.Size-1)
		if grads != want {
			t.Fatalf("worker %d epoch %d(%s)→%s: %d gradient msgs, want %d (size %d, iters %d→%d)",
				id, prev.Epoch, prev.Reason, upto, grads, want, prev.Size, prev.Iter, iters)
		}
	}
	for i := 1; i < len(log); i++ {
		check(log[i-1], log[i].Iter, log[i].GradMsgsSent, log[i].Reason)
	}
	check(log[len(log)-1], finalIters, final.GradMsgsSent, "end")
}

// TestElasticChurnScenario is the acceptance scenario: 2 workers join a
// 6-founder federation and 2 of the original 6 leave, all mid-training.
// Every surviving worker must end on the same roster, message counts must
// renormalize exactly at each epoch boundary, and accuracy must not
// collapse relative to the static 6-worker run.
func TestElasticChurnScenario(t *testing.T) {
	static, err := Run(chaosConfig(systems.DLion()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(systems.DLion())
	cfg.Faults = &fault.Schedule{
		Joins: []fault.Join{
			{Worker: 6, At: 30, Sponsor: -1}, // freshest live member sponsors
			{Worker: 7, At: 45, Sponsor: 2},
		},
		Leaves: []fault.Leave{
			{Worker: 1, At: 60},
			{Worker: 4, At: 75},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Joins != 2 || res.Faults.Leaves != 2 {
		t.Fatalf("fault counters %+v, want 2 joins and 2 leaves", res.Faults)
	}
	survivors := []int{0, 2, 3, 5, 6, 7}
	for _, i := range survivors {
		if res.States[i] != core.StateActive {
			t.Fatalf("worker %d state %v, want active", i, res.States[i])
		}
		got := res.Rosters[i]
		if len(got) != len(survivors) {
			t.Fatalf("worker %d roster %v, want %v", i, got, survivors)
		}
		for k := range got {
			if got[k] != survivors[k] {
				t.Fatalf("worker %d roster %v, want %v", i, got, survivors)
			}
		}
		// 4 epochs observed: 2 joins + 2 leaves (joiners adopt the epochs
		// that preceded them inside the WELCOME's epoch stamp).
		last := res.Membership[i][len(res.Membership[i])-1]
		if last.Epoch != 4 {
			t.Fatalf("worker %d final epoch %d, want 4", i, last.Epoch)
		}
	}
	for _, i := range []int{1, 4} {
		if res.States[i] != core.StateLeft {
			t.Fatalf("leaver %d state %v, want left", i, res.States[i])
		}
	}
	// Joiners trained after admission.
	for _, i := range []int{6, 7} {
		if res.Iters[i] < 10 {
			t.Fatalf("joiner %d made only %d iterations", i, res.Iters[i])
		}
	}
	// Exact renormalization at every epoch boundary, every worker.
	for i := 0; i < cfg.N; i++ {
		assertRenormalization(t, i, res.Membership[i], res.Stats[i], res.Iters[i])
	}
	// The elastic run must stay within 10% of the static federation's final
	// accuracy (the golden-tolerance convergence gate runs in testkit).
	if res.Timeline.FinalMean() < static.Timeline.FinalMean()*0.90 {
		t.Fatalf("elastic run accuracy %.3f vs static %.3f: churn broke convergence",
			res.Timeline.FinalMean(), static.Timeline.FinalMean())
	}
}

// TestJoinResolvesDeadSponsor: the declared sponsor is crashed at join
// time, so the driver must fall back to the freshest live member and the
// admission must still succeed.
func TestJoinResolvesDeadSponsor(t *testing.T) {
	cfg := elasticConfig(systems.DLion())
	cfg.Faults = &fault.Schedule{
		Crashes: []fault.Crash{{Worker: 1, At: 10}}, // never returns
		Joins:   []fault.Join{{Worker: 6, At: 30, Sponsor: 1}},
	}
	// Keep id 7 out of the run entirely: it joins at a time past the horizon.
	cfg.Faults.Joins = append(cfg.Faults.Joins, fault.Join{Worker: 7, At: 1e9, Sponsor: 0})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.States[6] != core.StateActive {
		t.Fatalf("joiner state %v, want active", res.States[6])
	}
	if res.Iters[6] < 10 {
		t.Fatalf("joiner made only %d iterations after sponsor fallback", res.Iters[6])
	}
	found := false
	for _, id := range res.Rosters[0] {
		if id == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("founder roster %v missing the joiner", res.Rosters[0])
	}
	if res.States[7] != core.StateJoining {
		t.Fatalf("dormant worker state %v, want joining", res.States[7])
	}
	if res.Iters[7] != 0 {
		t.Fatalf("dormant worker trained %d iters before its join time", res.Iters[7])
	}
}

// TestAllJoinersRejected: a schedule where every worker joins has no
// founders and must be rejected up front.
func TestAllJoinersRejected(t *testing.T) {
	cfg := tinyConfig(systems.Ako(1))
	cfg.Faults = &fault.Schedule{Joins: []fault.Join{
		{Worker: 0, At: 1, Sponsor: 1}, {Worker: 1, At: 1, Sponsor: 0},
		{Worker: 2, At: 1, Sponsor: 0}, {Worker: 3, At: 1, Sponsor: 0},
	}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("founderless schedule must error")
	}
}

// TestStaticRosterUnchanged pins the compatibility guarantee: without
// Join/Leave entries every worker keeps the full static roster, stays
// active, and logs exactly one seed epoch entry.
func TestStaticRosterUnchanged(t *testing.T) {
	res, err := Run(tinyConfig(systems.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rosters {
		if len(res.Rosters[i]) != 4 {
			t.Fatalf("worker %d roster %v, want all 4", i, res.Rosters[i])
		}
		if res.States[i] != core.StateActive {
			t.Fatalf("worker %d state %v", i, res.States[i])
		}
		if len(res.Membership[i]) != 1 || res.Membership[i][0].Reason != "seed" {
			t.Fatalf("worker %d log %+v, want single seed entry", i, res.Membership[i])
		}
	}
}
