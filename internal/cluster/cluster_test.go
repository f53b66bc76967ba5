package cluster

import (
	"reflect"
	"testing"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/env"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

// tinyConfig is a minimal fast experiment: 4 workers, small data, small
// model, 60 virtual seconds (a couple of wall seconds).
func tinyConfig(sys core.Config) Config {
	dc := data.Config{Name: "tc", NumClasses: 4, Train: 400, Test: 100,
		Channels: 1, Height: 8, Width: 8, Noise: 0.5, Jitter: 1, Bumps: 3, Seed: 5}
	comps := make([]simcompute.Compute, 4)
	for i := range comps {
		comps[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	return Config{
		System:   sys,
		Model:    nn.CipherSpec(1, 8, 8, 4, 0),
		Data:     dc,
		N:        4,
		Computes: comps,
		Network:  simnet.Uniform(4, simcompute.Constant(200), 0.001),
		Horizon:  60,
		Seed:     9,
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Run(tinyConfig(systems.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 2 {
		t.Fatalf("timeline too short: %d", len(res.Timeline))
	}
	if res.Timeline[0].T != 0 {
		t.Fatal("first eval must be at t=0")
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.T != 60 {
		t.Fatalf("final eval at %v, want horizon 60", last.T)
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].T <= res.Timeline[i-1].T {
			t.Fatal("timeline not strictly increasing")
		}
	}
	if len(res.Stats) != 4 || len(res.Iters) != 4 || len(res.Models) != 4 {
		t.Fatal("per-worker outputs missing")
	}
	for i, it := range res.Iters {
		if it < 5 {
			t.Fatalf("worker %d only %d iterations", i, it)
		}
	}
	if res.TotalBytes <= 0 {
		t.Fatal("no traffic accounted")
	}
}

func TestRunLearns(t *testing.T) {
	res, err := Run(tinyConfig(systems.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	first, final := res.Timeline[0].Mean, res.Timeline.FinalMean()
	if final <= first+0.1 {
		t.Fatalf("no learning: %.3f -> %.3f", first, final)
	}
}

// jitteredConfig is tinyConfig with 3 % compute jitter on every worker,
// as the Table 3 environments have.
func jitteredConfig(sys core.Config) Config {
	cfg := tinyConfig(sys)
	for i := range cfg.Computes {
		cfg.Computes[i].Cost.Jitter = 0.03
	}
	return cfg
}

// TestRunDeterministic: a Config is a value. Running one Config twice, and
// running a freshly built one, gives the same result, jitter included:
// cluster.Run builds the jitter streams from the Computes' seeds.
func TestRunDeterministic(t *testing.T) {
	run := func(cfg Config) *Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cfg := jitteredConfig(systems.DLion())
	a, b, fresh := run(cfg), run(cfg), run(jitteredConfig(systems.DLion()))
	for name, r := range map[string]*Result{"second run": b, "fresh config": fresh} {
		if !reflect.DeepEqual(a.Timeline, r.Timeline) {
			t.Errorf("%s: timeline differs:\n%v\n%v", name, a.Timeline, r.Timeline)
		}
		if !reflect.DeepEqual(a.Iters, r.Iters) {
			t.Errorf("%s: iterations %v, first run %v", name, r.Iters, a.Iters)
		}
		if !reflect.DeepEqual(a.Stats, r.Stats) {
			t.Errorf("%s: stats differ:\n%v\n%v", name, a.Stats, r.Stats)
		}
		if a.TotalBytes != r.TotalBytes {
			t.Errorf("%s: %d bytes, first run %d", name, r.TotalBytes, a.TotalBytes)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	c1 := tinyConfig(systems.Baseline())
	c2 := tinyConfig(systems.Baseline())
	c2.Seed = 1234
	r1, err := Run(c1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Timeline {
		if i < len(r2.Timeline) && r1.Timeline[i].Mean != r2.Timeline[i].Mean {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical timelines")
	}
}

func TestWireScaleChargesBytes(t *testing.T) {
	small := tinyConfig(systems.Baseline())
	small.Model.WireBytes = 0 // real size
	big := tinyConfig(systems.Baseline())
	big.Model.WireBytes = 64 << 20
	// slow the network so iteration counts stay comparable but finite
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerIterSmall := float64(rs.TotalBytes) / float64(rs.Iters[0])
	bytesPerIterBig := float64(rb.TotalBytes) / float64(rb.Iters[0])
	if bytesPerIterBig < 5*bytesPerIterSmall {
		t.Fatalf("wire scaling ineffective: %v vs %v", bytesPerIterBig, bytesPerIterSmall)
	}
}

func TestNetworkBoundSlowsIterations(t *testing.T) {
	fast := tinyConfig(systems.Baseline())
	slow := tinyConfig(systems.Baseline())
	slow.Network = simnet.Uniform(4, simcompute.Constant(2), 0.001) // 2 Mbps
	slow.Model.WireBytes = 5 << 20
	rf, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	rsl, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rsl.Iters[0] >= rf.Iters[0] {
		t.Fatalf("starved network should slow sync training: %d vs %d",
			rsl.Iters[0], rf.Iters[0])
	}
}

func TestHeterogeneousComputeSlowsSync(t *testing.T) {
	cfg := tinyConfig(systems.Baseline())
	comps := make([]simcompute.Compute, 4)
	for i := range comps {
		cap := 12.0
		if i == 3 {
			cap = 1 // hard straggler
		}
		comps[i] = simcompute.New(simcompute.Constant(cap),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	cfg.Computes = comps
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(tinyConfig(systems.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters[0] >= base.Iters[0] {
		t.Fatal("sync system should be bounded by the straggler")
	}
	// DLion's dynamic batching should recover most of the loss
	dcfg := tinyConfig(systems.DLion())
	dcfg.Computes = comps
	dres, err := Run(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Iters[0] <= res.Iters[0] {
		t.Fatalf("DLion should out-iterate sync Baseline under a straggler: %d vs %d",
			dres.Iters[0], res.Iters[0])
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := tinyConfig(systems.DLion())
	cfg.TracePeriod = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) < 4 {
		t.Fatalf("traces %d", len(res.Traces))
	}
	tr := res.Traces[len(res.Traces)-1]
	if len(tr.LBS) != 4 || tr.GBS <= 0 {
		t.Fatalf("trace %+v", tr)
	}
	sum := 0
	for _, l := range tr.LBS {
		if l < 1 {
			t.Fatalf("nonpositive LBS in %v", tr.LBS)
		}
		sum += l
	}
	if sum < tr.GBS/2 || sum > tr.GBS*2 {
		t.Fatalf("LBS sum %d far from GBS %d", sum, tr.GBS)
	}
	if tr.SelCount[[2]int{0, 1}] == 0 {
		t.Fatal("no selection count recorded")
	}
}

func TestValidationErrors(t *testing.T) {
	base := tinyConfig(systems.Baseline())
	cases := map[string]func(*Config){
		"too few workers": func(c *Config) { c.N = 1 },
		"computes count":  func(c *Config) { c.Computes = c.Computes[:2] },
		"nil network":     func(c *Config) { c.Network = nil },
		"network size":    func(c *Config) { c.Network = simnet.Uniform(3, simcompute.Constant(1), 0) },
		"bad horizon":     func(c *Config) { c.Horizon = 0 },
	}
	for name, mutate := range cases {
		c := base
		mutate(&c)
		if _, err := Run(c); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	bad := base
	bad.Data.NumClasses = 1
	if _, err := Run(bad); err == nil {
		t.Fatal("bad data config must error")
	}
	bad = base
	bad.System.LearningRate = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("bad system config must error")
	}
}

func TestRunUntilConverged(t *testing.T) {
	cfg := tinyConfig(systems.Baseline())
	cfg.Horizon = 30
	res, convT, err := RunUntilConverged(cfg, 2, 0.05, 120)
	if err != nil {
		t.Fatal(err)
	}
	if convT <= 0 {
		t.Fatalf("convergence time %v", convT)
	}
	if res.Timeline.FinalMean() < 0.3 {
		t.Fatalf("converged accuracy too low: %v", res.Timeline.FinalMean())
	}
}

func TestAllSystemPresetsRun(t *testing.T) {
	for _, sys := range systems.All() {
		res, err := Run(tinyConfig(sys))
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if res.Timeline.FinalMean() <= 0.2 {
			t.Fatalf("%s failed to learn: %.3f", sys.Name, res.Timeline.FinalMean())
		}
	}
}

func TestGaiaSendsFewerBytesThanBaseline(t *testing.T) {
	rb, err := Run(tinyConfig(systems.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Run(tinyConfig(systems.Gaia(1)))
	if err != nil {
		t.Fatal(err)
	}
	baselinePerIter := float64(rb.TotalBytes) / float64(rb.Iters[0])
	gaiaPerIter := float64(rg.TotalBytes) / float64(rg.Iters[0])
	if gaiaPerIter >= baselinePerIter {
		t.Fatalf("Gaia should send less per iteration: %v vs %v",
			gaiaPerIter, baselinePerIter)
	}
}

func TestDLionRespectsBandwidthBudget(t *testing.T) {
	// On a starved network, DLion's per-iteration egress should stay near
	// what the links can carry, while Baseline's demand vastly exceeds it.
	mk := func(sys core.Config) Config {
		c := tinyConfig(sys)
		c.Network = simnet.Uniform(4, simcompute.Constant(10), 0.001)
		c.Model.WireBytes = 5 << 20
		return c
	}
	rd, err := Run(mk(systems.DLion()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(mk(systems.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Iters[0] <= 2*rb.Iters[0] {
		t.Fatalf("budgeted DLion should iterate much faster on a starved net: %d vs %d",
			rd.Iters[0], rb.Iters[0])
	}
}

func TestCustomSelectorSystem(t *testing.T) {
	// The plugin surface: a user-defined selector drops everything, which
	// must still train (local SGD only) without crashing.
	sys := core.Config{
		Name:         "silent",
		LearningRate: 0.05,
		NewSelector:  func() grad.Selector { return silentSelector{} },
		Batch:        core.BatchConfig{InitialLBS: 8},
		Sync:         core.SyncConfig{Mode: core.SyncAsync},
	}
	res, err := Run(tinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters[0] < 5 {
		t.Fatal("silent system should still iterate")
	}
}

type silentSelector struct{}

func (silentSelector) Name() string { return "silent" }
func (silentSelector) Select(int, []*nn.Param, int) []*grad.Selection {
	return nil
}

func TestEnvIntegration(t *testing.T) {
	// One end-to-end pass over a real Table 3 environment.
	e, err := env.Get("Hetero CPU A", 3)
	if err != nil {
		t.Fatal(err)
	}
	dc := data.CIFAR10Config(0.02, 11)
	res, err := Run(Config{
		System:   systems.DLion(),
		Model:    nn.CipherSpec(dc.Channels, dc.Height, dc.Width, dc.NumClasses, 0),
		Data:     dc,
		N:        e.N,
		Computes: e.Computes,
		Network:  e.Network,
		Horizon:  100,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// dynamic batching must give the 24-core workers bigger batches than
	// the 6-core ones; verify via samples processed
	if res.Stats[0].SamplesProcessed <= res.Stats[5].SamplesProcessed {
		t.Fatalf("big worker processed %d <= small worker %d",
			res.Stats[0].SamplesProcessed, res.Stats[5].SamplesProcessed)
	}
}
