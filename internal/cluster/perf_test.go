package cluster

// Tests pinning the perf work of the fleet-scale DES effort: parallel
// evaluation must not change a single timeline byte, trace sampling must
// stay at its fixed allocation budget, and the hierarchical federation
// workloads must run end to end.

import (
	"fmt"
	"testing"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/systems"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// TestParallelEvalDeterministic runs the same seeded experiment with
// evaluation fanned out across goroutines and with everything forced
// inline, and requires bit-identical timelines — the merge in worker-id
// order makes scheduling invisible. Evaluating every 10 s puts five fan-outs
// in the middle of training, beside steps running on the step slots: under
// -race (make race) this is the check that evaluation joins nothing and
// that the evaluation goroutines work on their private scratch replicas and
// only read the training ones' weights, as the steps in flight do.
func TestParallelEvalDeterministic(t *testing.T) {
	cfg := tinyConfig(systems.DLion())
	cfg.EvalPeriod = 10
	prev := tensor.SetMaxWorkers(4)
	parallel, err := Run(cfg)
	tensor.SetMaxWorkers(1)
	inline, err2 := Run(cfg)
	tensor.SetMaxWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if len(parallel.Timeline) != len(inline.Timeline) {
		t.Fatalf("timeline lengths diverge: %d vs %d",
			len(parallel.Timeline), len(inline.Timeline))
	}
	for i := range parallel.Timeline {
		p, q := parallel.Timeline[i], inline.Timeline[i]
		if p.T != q.T || p.Mean != q.Mean || p.Loss != q.Loss {
			t.Fatalf("timeline[%d] diverges: %+v vs %+v", i, p, q)
		}
		if len(p.PerWork) != len(q.PerWork) {
			t.Fatalf("timeline[%d] acc counts diverge", i)
		}
		for j := range p.PerWork {
			if p.PerWork[j] != q.PerWork[j] {
				t.Fatalf("timeline[%d] acc[%d]: %v vs %v", i, j, p.PerWork[j], q.PerWork[j])
			}
		}
	}
	if parallel.Events != inline.Events {
		t.Fatalf("event counts diverge: %d vs %d", parallel.Events, inline.Events)
	}
}

// TestEvalOnceIdenticalReplicas pins the t = 0 point of a Run: every
// replica is a clone of one init, so one forward set runs and the others
// report its result, and the point equals a per-replica evaluation computed
// directly over fresh builds. The dormant joiner is left out of both.
func TestEvalOnceIdenticalReplicas(t *testing.T) {
	cfg := SimEventsConfig(6, true).withDefaults() // worker 5 joins at t = 2.4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.evalForwards[0]; got != 1 {
		t.Fatalf("t = 0 ran %d forward sets, want 1", got)
	}
	if last := res.evalForwards[len(res.evalForwards)-1]; last != cfg.N {
		t.Fatalf("t = %v ran %d forward sets over %d diverged replicas", cfg.Horizon, last, cfg.N)
	}
	_, test, err := data.Generate(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	evalSet := test.Head(cfg.EvalSubset)
	spec := cfg.Model
	spec.Seed = cfg.Seed + 1000
	var accs []float64
	var lossSum float64
	for i := 0; i < cfg.N-1; i++ {
		a, l := spec.Build().Evaluate(evalSet, cfg.EvalBatch)
		accs = append(accs, a)
		lossSum += l
	}
	want := fmt.Sprintf("%v", NewPoint(0, accs, lossSum/float64(len(accs))))
	if got := fmt.Sprintf("%v", res.Timeline[0]); got != want {
		t.Fatalf("t = 0 point %s, want %s", got, want)
	}
}

// traceEnv is the minimal core.Env needed to construct workers for the
// trace-allocation measurement; nothing is ever scheduled on it.
type traceEnv struct{ n int }

func (e *traceEnv) Now() float64                       { return 0 }
func (e *traceEnv) After(d float64, fn func())         {}
func (e *traceEnv) NumWorkers() int                    { return e.n }
func (e *traceEnv) Send(from, to int, m *wire.Message) {}
func (e *traceEnv) Bandwidth(from, to int) float64     { return 100 }
func (e *traceEnv) SendScale() float64                 { return 1 }
func (e *traceEnv) Step(w, batch int, run func(ws *tensor.Workspace)) (charged, wait float64) {
	run(nil)
	return 1, 1
}
func (e *traceEnv) Join(int) bool { return true }
func (e *traceEnv) ProfileCompute(w int, batches []int) (x, y []float64) {
	for _, b := range batches {
		x = append(x, float64(b))
		y = append(y, 0.01+float64(b)/32)
	}
	return x, y
}

func traceWorkers(t testing.TB, n int) []*core.Worker {
	dc := data.Config{Name: "trace", NumClasses: 3, Train: 96, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.3, Jitter: 0, Bumps: 3, Seed: 4}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := nn.CipherSpec(1, 8, 8, 3, 77)
	env := &traceEnv{n: n}
	ws := make([]*core.Worker, n)
	for i := range ws {
		w, err := core.New(i, systems.DLion(), spec.Build(), shards[i], env)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// TestTraceSampleAllocs pins the fixed allocation budget of one trace
// sample: the LBS slice, the two exact-capacity maps (whose pre-sized
// buckets never rehash mid-fill), and small map internals — but nothing
// proportional to fill order. The bound is deliberately loose in absolute
// terms (map bucket arrays count) while still catching a regression to
// per-entry rehashing growth.
func TestTraceSampleAllocs(t *testing.T) {
	ws := traceWorkers(t, 8)
	allocs := testing.AllocsPerRun(20, func() {
		tr := sampleTrace(ws, 1)
		if len(tr.LBS) != 8 || len(tr.SelCount) != 8*7 || len(tr.Budget) != 8*7 {
			t.Fatal("trace shape wrong")
		}
	})
	// 8 workers → 56 entries per map. Exact-capacity maps allocate their
	// bucket arrays up front: ~6 allocations total (slice, 2× map header +
	// bucket array, Trace escape). Growth-by-rehash would multiply this.
	if allocs > 12 {
		t.Fatalf("sampleTrace allocates %.0f times per sample, want <= 12", allocs)
	}
}

func BenchmarkTraceSample(b *testing.B) {
	ws := traceWorkers(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := sampleTrace(ws, float64(i)); len(tr.LBS) != 32 {
			b.Fatal("trace shape wrong")
		}
	}
}

// TestHierarchicalFederationRuns exercises the fleet-scale benchmark
// configuration end to end at a small size: a 4-cloud hierarchical
// federation must run to its horizon and execute events.
func TestHierarchicalFederationRuns(t *testing.T) {
	cfg := FederationConfig(8) // 4 clouds × 2 workers
	cfg.Horizon = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no events executed")
	}
	if res.Timeline[len(res.Timeline)-1].T != cfg.Horizon {
		t.Fatal("final eval not at horizon")
	}
	for i, it := range res.Iters {
		if it == 0 {
			t.Fatalf("worker %d never iterated", i)
		}
	}
}
