package cluster

// A training step is a future (DESIGN.md §2): the event loop hands each
// step to a slot and joins it when the worker is next touched. These tests
// pin that the number of slots changes nothing a Run computes, on schedules
// that reach every join site, against values captured before steps left the
// event loop; and that the engine's queue is reserved at its real peak.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dlion/internal/fault"
	"dlion/internal/lineage"
	"dlion/internal/systems"
	"dlion/internal/tensor"
)

// resultDigest hashes everything a Run reports except wall-clock figures:
// timeline, per-worker stats, iterations, membership logs, final states and
// rosters, fault counters, delivered bytes, events and every replica's
// weights. %v prints each float as the shortest decimal that round-trips, so
// equal digests mean bit-identical results.
func resultDigest(res *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|%v|%v|%v|%v|%d|%d", res.Timeline, res.Stats, res.Iters,
		res.Membership, res.States, res.Rosters, res.Faults, res.TotalBytes, res.Events)
	for _, m := range res.Models {
		fmt.Fprintf(h, "|%s", lineage.ModelHash(m))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type slotsScenario struct {
	name   string
	cfg    func() Config
	events uint64
	bytes  int64
	digest string // captured with every step inline on the event loop
}

// slotsScenarios reach every join site: timers (completion, DKT decision,
// liveness recheck, profiling), non-gradient messages (DKT requests and
// weights, loss and RCP reports, HELLO/WELCOME/LEAVE), ordered gradients,
// Stop, Leave and StartJoin, and on the driver side evaluation, the
// checkpoint loop and crash restore.
func slotsScenarios() []slotsScenario {
	return []slotsScenario{
		{name: "crash-checkpoint-liveness", cfg: func() Config {
			cfg := chaosConfig(chaosSystem()) // liveness 3 s
			cfg.Horizon = 80
			// Off the checkpoint grid at 20 and 40, where the restores come
			// from: an evaluation there would join every step itself.
			cfg.EvalPeriod = 30
			cfg.Faults = &fault.Schedule{
				CheckpointPeriod: 10,
				Crashes: []fault.Crash{
					{Worker: 1, At: 25, RestartAfter: 15},
					{Worker: 4, At: 45, RestartAfter: 20},
				},
			}
			return cfg
		}, events: 1797, bytes: 7276641334, digest: "d4202011d10b397e"},
		{name: "churn", cfg: func() Config {
			cfg := elasticConfig(systems.DLion())
			cfg.Horizon = 90
			cfg.Faults = &fault.Schedule{
				Joins:  []fault.Join{{Worker: 6, At: 20, Sponsor: -1}, {Worker: 7, At: 35, Sponsor: 2}},
				Leaves: []fault.Leave{{Worker: 1, At: 50}, {Worker: 4, AfterIters: 60}},
			}
			return cfg
		}, events: 3506, bytes: 13272244052, digest: "ed9455a9ded2027c"},
		{name: "dkt", cfg: func() Config {
			sys := systems.DLion()
			sys.DKT.Period = 3
			cfg := tinyConfig(sys)
			cfg.Horizon = 40
			cfg.EvalPeriod = 10
			return cfg
		}, events: 638, bytes: 1841437128, digest: "23b07ad00be3cf12"},
		{name: "ordered", cfg: func() Config {
			sys := systems.Baseline()
			sys.OrderedApply = true
			cfg := tinyConfig(sys)
			cfg.Horizon = 40
			cfg.EvalPeriod = 10
			return cfg
		}, events: 319, bytes: 1232884730, digest: "da3e8a273e478262"},
	}
}

// TestStepSlotsMatchSequential runs every scenario with 1, 2 and 4 step
// slots (one slot runs each step inline, when it is handed over) and
// requires each Result to be the one the simulator produced when every step
// ran inline on the event loop. Twelve Runs: -short leaves them to
// TestStepSlotsRace.
func TestStepSlotsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve Runs; TestStepSlotsRace covers two scenarios on four slots")
	}
	for _, sc := range slotsScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4} {
				checkScenario(t, sc, k)
			}
		})
	}
}

// TestStepSlotsRace is the -race case (make race): four slots train while
// deliveries arrive, DKT weights merge, checkpoints are taken and crashed
// workers are restored.
func TestStepSlotsRace(t *testing.T) {
	for _, sc := range slotsScenarios() {
		if sc.name == "crash-checkpoint-liveness" || sc.name == "dkt" {
			checkScenario(t, sc, 4)
		}
	}
}

func checkScenario(t *testing.T, sc slotsScenario, k int) {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(k))
	res, err := Run(sc.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(res); res.Events != sc.events || res.TotalBytes != sc.bytes || got != sc.digest {
		t.Fatalf("%d slots: events %d, bytes %d, digest %s; want %d, %d, %s",
			k, res.Events, res.TotalBytes, got, sc.events, sc.bytes, sc.digest)
	}
}

// TestEventHeapReserve pins the engine's peak queue on the federation
// workload — the t = 0 burst's all-to-all exchange, n² + n + 1 events — and
// that Run's reservation covers it, so the queue never regrows.
func TestEventHeapReserve(t *testing.T) {
	for _, tc := range []struct{ n, peak int }{{64, 4161}, {256, 65793}} {
		if testing.Short() && tc.n > 64 {
			continue
		}
		res, err := Run(FederationConfig(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		if res.peakPending != tc.peak {
			t.Fatalf("n=%d: peak queue %d events, want %d", tc.n, res.peakPending, tc.peak)
		}
		if reserved := tc.n*tc.n + 2*tc.n + 16; res.peakPending > reserved {
			t.Fatalf("n=%d: peak %d exceeds the %d events Run reserves", tc.n, res.peakPending, reserved)
		}
	}
}
