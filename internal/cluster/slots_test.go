package cluster

// A training step is a future (DESIGN.md §2): the event loop hands each
// step to a slot and joins it when the worker is next touched. These tests
// pin that the number of slots changes nothing a Run computes, on schedules
// that reach every join site, against values captured before steps left the
// event loop; and that the engine's queue is reserved at its real peak.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dlion/internal/core"
	"dlion/internal/fault"
	"dlion/internal/lineage"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
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
	fmt.Fprintf(h, "%v|%s|%v|%v|%v|%v|%v|%d|%d", res.Timeline, statsText(res.Stats), res.Iters,
		res.Membership, res.States, res.Rosters, res.Faults, res.TotalBytes, res.Events)
	for _, m := range res.Models {
		fmt.Fprintf(h, "|%s", lineage.ModelHash(m))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// statsText lays out the stats fields the digests were captured over
// exactly as %v laid out core.Stats then, so a field added to Stats later
// leaves every digest where it is.
func statsText(stats []core.Stats) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range stats {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "{%v %v %v %v %v %v %v %v %v %v %v %v %v %v %v %v %v %v %v %v}",
			s.Iters, s.SamplesProcessed, s.MsgsSent, s.MsgsRecvd, s.BytesSent,
			s.GradValuesSent, s.GradMsgsSent, s.DKTWeightsSent, s.DKTMerges, s.WelcomesSent,
			s.DegradedIters, s.MsgsRejected, s.QuantBytesSaved, s.LivenessExpiries,
			s.SyncBlocks, s.JoinLatency, s.SentMsgs, s.SentBytes, s.RecvMsgs, s.RecvBytes)
	}
	b.WriteByte(']')
	return b.String()
}

type slotsScenario struct {
	name   string
	cfg    func() Config
	events uint64
	bytes  int64
	digest string     // captured with every step inline on the event loop
	steps  stepCounts // steps past the horizon: deferred, run late, dropped
}

// slotsScenarios reach every join site: timers (completion, DKT decision,
// the failure detector, profiling), non-gradient messages (DKT requests
// and weights, loss and RCP reports, HELLO/WELCOME/LEAVE), ordered
// gradients, Stop, Leave, StartJoin and Resume, and on the driver side the
// checkpoint loop and crash restore. A step that completes past the horizon is deferred, and
// joining it while the loop runs runs it late: in "dkt" a DKT decision
// reads a deferred step's loss, in "crash-checkpoint-liveness" the
// checkpoint at the horizon joins every worker, and in "dkt-late" four
// DKT decisions read deferred steps' losses and the elections they decide
// merge weights before the horizon — a step skipped at launch would move
// that Run's digest. "federation64" drops every deferred step.
// "queued-eval" evaluates while peer gradients are queued behind some
// replicas' steps and not others'. Every digest was captured before steps
// could be deferred and before evaluation read views instead of joining,
// except "crash-checkpoint-liveness"'s, re-captured when a silent peer
// became a roster change and a restart a rejoin; all were re-captured again,
// with every run unchanged, when Stats took over the per-class counts,
// liveness expiries, sync blocks and join latency.
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
		}, events: 2663, bytes: 7261723360, digest: "5baac20ffb60b6b7",
			steps: stepCounts{deferred: 6, late: 6}},
		{name: "churn", cfg: func() Config {
			cfg := elasticConfig(systems.DLion())
			cfg.Horizon = 90
			cfg.Faults = &fault.Schedule{
				Joins:  []fault.Join{{Worker: 6, At: 20, Sponsor: -1}, {Worker: 7, At: 35, Sponsor: 2}},
				Leaves: []fault.Leave{{Worker: 1, At: 50}, {Worker: 4, AfterIters: 60}},
			}
			return cfg
		}, events: 3506, bytes: 13272244052, digest: "84fe246a69467c42",
			steps: stepCounts{deferred: 6, dropped: 6}},
		{name: "dkt", cfg: func() Config {
			sys := systems.DLion()
			sys.DKT.Period = 3
			cfg := tinyConfig(sys)
			cfg.Horizon = 40
			cfg.EvalPeriod = 10
			return cfg
		}, events: 638, bytes: 1841437128, digest: "e83a14fc6bdd303e",
			steps: stepCounts{deferred: 4, late: 1, dropped: 3}},
		{name: "dkt-late", cfg: func() Config {
			sys := systems.DLion()
			sys.DKT.Period = 3
			cfg := tinyConfig(sys)
			cfg.Horizon = 30.3
			cfg.EvalPeriod = 10
			return cfg
		}, events: 485, bytes: 1374522090, digest: "43c7ad09f9630e67",
			steps: stepCounts{deferred: 4, late: 4}},
		{name: "ordered", cfg: func() Config {
			sys := systems.Baseline()
			sys.OrderedApply = true
			cfg := tinyConfig(sys)
			cfg.Horizon = 40
			cfg.EvalPeriod = 10
			return cfg
		}, events: 319, bytes: 1232884730, digest: "0ece2031595b51e2",
			steps: stepCounts{deferred: 1, dropped: 1}},
		{name: "federation64", cfg: func() Config { return FederationConfig(64) },
			events: 5841, bytes: 1526285042, digest: "a0325badef47842b",
			steps: stepCounts{deferred: 64, dropped: 64}},
		{name: "queued-eval", cfg: queuedEvalConfig,
			events: 43, bytes: 115418996, digest: "166bd9902bcc177c",
			steps: stepCounts{deferred: 1, dropped: 1}},
	}
}

// queuedEvalConfig evaluates while peer gradients wait behind steps in
// flight: worker 0 is 16× faster than the rest, and its link to worker 2
// is 4 s long. At every evaluation up to t = 5 workers 1, 2 and 3 are
// still stepping on the initial weights, so their W are bit-identical,
// but worker 1 has worker 0's first gradient queued and worker 2 not yet:
// their views differ.
func queuedEvalConfig() Config {
	cfg := tinyConfig(systems.Baseline())
	for i := range cfg.Computes {
		cores := 3.0
		if i == 0 {
			cores = 48
		}
		cfg.Computes[i] = simcompute.New(simcompute.Constant(cores),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	cfg.Network = simnet.New(cfg.N)
	for i := 0; i < cfg.N; i++ {
		for j := 0; j < cfg.N; j++ {
			if i != j {
				rtt := 0.001
				if i == 0 && j == 2 {
					rtt = 8
				}
				cfg.Network.SetLink(i, j, simnet.Link{Bandwidth: simcompute.Constant(200), RTT: rtt})
			}
		}
	}
	cfg.Horizon = 12
	cfg.EvalPeriod = 1
	return cfg
}

// TestStepSlotsMatchSequential runs every scenario with 1, 2 and 4 step
// slots (one slot runs each step inline, when it is handed over) and
// requires each Result to be the one the simulator produced when every step
// ran inline on the event loop, with the same steps deferred, run late and
// dropped. Twenty-one Runs: -short leaves them to TestStepSlotsRace and
// TestLazySteps.
func TestStepSlotsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-one Runs; TestStepSlotsRace and TestLazySteps cover five scenarios")
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
// deliveries arrive, DKT weights merge, checkpoints are taken, crashed
// workers are restored, and deferred steps run late.
func TestStepSlotsRace(t *testing.T) {
	for _, sc := range slotsScenarios() {
		if sc.name == "crash-checkpoint-liveness" || sc.name == "dkt" {
			checkScenario(t, sc, 4)
		}
	}
}

// TestLazySteps runs the scenarios where deferral and the evaluation view
// decide the most at the default slot count, so `go test -cpu 1,2,4` and
// -race (make race) drive it: on "federation64" half of the Run's 128 steps
// complete past the horizon and every one is dropped, and the t = 2
// evaluation reads the weights of workers whose steps are held back; on
// "dkt-late" deferred steps run late, handed to the slots at their join;
// on "queued-eval" evaluation applies queued gradients to its copies while
// the slots read W.
func TestLazySteps(t *testing.T) {
	for _, sc := range slotsScenarios() {
		if sc.name == "federation64" || sc.name == "dkt-late" || sc.name == "queued-eval" {
			checkScenario(t, sc, 0)
		}
	}
}

// checkScenario runs sc on k step slots (0: GOMAXPROCS).
func checkScenario(t *testing.T, sc slotsScenario, k int) {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(k))
	res, err := Run(sc.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(res); res.Events != sc.events || res.TotalBytes != sc.bytes || got != sc.digest {
		t.Fatalf("%s, %d slots: events %d, bytes %d, digest %s; want %d, %d, %s",
			sc.name, k, res.Events, res.TotalBytes, got, sc.events, sc.bytes, sc.digest)
	}
	if res.steps != sc.steps {
		t.Fatalf("%s, %d slots: steps past the horizon %+v, want %+v", sc.name, k, res.steps, sc.steps)
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
