package cluster

// Tests pinning the perf work of the fleet-scale DES effort: parallel
// evaluation must not change a single timeline byte, trace sampling must
// stay at its fixed allocation budget, and the hierarchical federation
// workloads must run end to end.

import (
	"testing"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/systems"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// TestParallelEvalDeterministic runs the same seeded experiment with
// evaluation fanned out across goroutines and with everything forced
// inline, and requires bit-identical timelines — the merge in worker-id
// order makes scheduling invisible. Evaluating every 10 s puts five fan-outs
// in the middle of training, while the replicas' shared arena is in use:
// under -race (make race) this is the check that the evaluation goroutines
// work on their private scratch replicas and only read the shared ones'
// weights.
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

// traceEnv is the minimal core.Env needed to construct workers for the
// trace-allocation measurement; nothing is ever scheduled on it.
type traceEnv struct{ n int }

func (e *traceEnv) Now() float64                                     { return 0 }
func (e *traceEnv) After(d float64, fn func())                       {}
func (e *traceEnv) NumWorkers() int                                  { return e.n }
func (e *traceEnv) Send(from, to int, m *wire.Message)               {}
func (e *traceEnv) Bandwidth(from, to int) float64                   { return 100 }
func (e *traceEnv) IterSeconds(w, batch int) (charged, wait float64) { return 1, 1 }
func (e *traceEnv) SendScale() float64                               { return 1 }
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
// federation must run to its horizon, execute events, and report a
// throughput figure.
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
	if res.EventsPerSec <= 0 {
		t.Fatal("EventsPerSec not reported")
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

func TestAttachSimMetrics(t *testing.T) {
	if _, err := Run(tinyConfig(systems.Baseline())); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	AttachSimMetrics(reg)
	v, ok := reg.Snapshot()["sim.events_per_sec"]
	if !ok {
		t.Fatal("sim.events_per_sec not registered")
	}
	if v <= 0 {
		t.Fatalf("sim.events_per_sec = %d after a run", v)
	}
}
