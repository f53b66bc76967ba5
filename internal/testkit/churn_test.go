package testkit

import (
	"slices"
	"testing"

	"dlion/internal/core"
	"dlion/internal/grad"
	"dlion/internal/obs"
)

// TestChurnEquivalence runs the same seeded SyncFull workload with a
// mid-run graceful leave on the simulator and against the TCP broker, and
// requires the step-exact churn contract to hold on both: the leaver
// departs at exactly the configured iteration with a full gradient fan-out
// behind it, survivors spend their whole budget on the renormalized
// roster, the fan-out invariant holds on every epoch log, and — realtime
// only — not a single in-flight frame is shed on the way out.
func TestChurnEquivalence(t *testing.T) {
	cfg := EquivalenceConfig{N: 3, Steps: 16, Leaver: 2, LeaveAfter: 8, Seed: 7}
	sim, rt := runBoth(t, cfg)
	if err := CheckChurn(cfg, sim); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if err := CheckChurn(cfg, rt); err != nil {
		t.Fatalf("realtime: %v", err)
	}

	// The contract pins the leave side to the same numbers on both
	// substrates; spell the cross-substrate equalities out anyway so a
	// future loosening of CheckChurn cannot silently weaken this gate.
	if sim.Iters[cfg.Leaver] != rt.Iters[cfg.Leaver] {
		t.Fatalf("leaver iterations sim=%d realtime=%d", sim.Iters[cfg.Leaver], rt.Iters[cfg.Leaver])
	}
	// The leaver's send side is its own, every count of it; what it still
	// received depends on when it stopped listening.
	sent := func(s core.Stats) core.Stats {
		s = ledger(s)
		s.MsgsRecvd, s.RecvMsgs, s.RecvBytes = 0, [obs.NumClasses]int64{}, [obs.NumClasses]int64{}
		return s
	}
	if a, b := sent(sim.Stats[cfg.Leaver]), sent(rt.Stats[cfg.Leaver]); a != b {
		t.Fatalf("leaver sends sim=%+v\nrealtime=%+v", a, b)
	}
	for i := 0; i < cfg.N; i++ {
		if i != cfg.Leaver && !slices.Equal(sim.Rosters[i], rt.Rosters[i]) {
			t.Fatalf("survivor %d roster sim=%v realtime=%v", i, sim.Rosters[i], rt.Rosters[i])
		}
	}
}

// TestEquivalenceConfigValidate pins the harness's own input checking.
func TestEquivalenceConfigValidate(t *testing.T) {
	bad := []EquivalenceConfig{
		{N: 1, Steps: 8}, // nobody to exchange with
		{N: 2, Steps: 0}, // no budget
		{N: 2, Steps: 8, QuantMix: []grad.Precision{grad.PrecI8}}, // one precision short
		{N: 2, Steps: 8, Leaver: 1, LeaveAfter: 4},                // survivors must still exchange
		{N: 3, Steps: 8, Leaver: 3, LeaveAfter: 4},                // leaver out of range
		{N: 3, Steps: 8, Leaver: 0, LeaveAfter: 8},                // leave point past the budget
		{N: 3, Steps: 8, Leaver: 0, LeaveAfter: -1},               // negative leave point
		{N: 3, Steps: 8, Leaver: 1},                               // leaver without a leave point
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	for _, c := range []EquivalenceConfig{{N: 2, Steps: 8}, {N: 3, Steps: 8, Leaver: 2, LeaveAfter: 4}} {
		if err := c.validate(); err != nil {
			t.Errorf("good config %+v rejected: %v", c, err)
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
