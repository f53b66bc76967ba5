package core

import (
	"bytes"
	"math"
	"testing"

	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/simclock"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// fakeEnv implements Env over the DES with fixed per-worker iteration
// times, a fixed bandwidth matrix, and a recorded message log. Delivery is
// immediate unless delay > 0.
type fakeEnv struct {
	eng       *simclock.Engine
	n         int
	workers   []*Worker
	iterSec   []float64
	bw        float64
	delay     float64
	sent      []*wire.Message
	dropTo    map[int]bool // blackholed receivers
	sendScale float64
	// wallPaid mimics the real-mode substrate: the iteration is charged
	// iterSec but nothing is left to wait (the step already took the time).
	wallPaid bool
	// onSend sees each message as the worker hands it over, before the env
	// makes it its own.
	onSend func(m *wire.Message)
	ws     *tensor.Workspace
}

func newFakeEnv(n int, iterSec []float64) *fakeEnv {
	return &fakeEnv{eng: simclock.New(), n: n, iterSec: iterSec, bw: 100,
		dropTo: map[int]bool{}, sendScale: 1}
}

func (e *fakeEnv) Now() float64               { return e.eng.Now() }
func (e *fakeEnv) After(d float64, fn func()) { e.eng.After(d, fn) }
func (e *fakeEnv) NumWorkers() int            { return e.n }
func (e *fakeEnv) SendScale() float64         { return e.sendScale }
func (e *fakeEnv) Bandwidth(from, to int) float64 {
	return e.bw
}

// Step runs the step inline on one arena all workers share, as the
// simulator's single-slot bound does.
func (e *fakeEnv) Step(w, batch int, run func(ws *tensor.Workspace)) (charged, wait float64) {
	if e.ws == nil {
		e.ws = tensor.NewWorkspace()
	}
	run(e.ws)
	if e.wallPaid {
		return e.iterSec[w], 0
	}
	return e.iterSec[w], e.iterSec[w]
}
func (e *fakeEnv) Join(int) bool { return true }
func (e *fakeEnv) ProfileCompute(w int, batches []int) (x, y []float64) {
	for _, b := range batches {
		x = append(x, float64(b))
		// per-sample cost inversely proportional to speed (1/iterSec)
		y = append(y, 0.01+e.iterSec[w]*float64(b)/32)
	}
	return x, y
}
func (e *fakeEnv) Send(from, to int, m *wire.Message) {
	if e.onSend != nil {
		e.onSend(m)
	}
	for _, s := range m.Selections {
		s.Own() // the log and the delayed delivery outlive the call
	}
	e.sent = append(e.sent, m)
	if e.dropTo[to] {
		return
	}
	e.eng.At(e.eng.Now()+e.delay, func() { e.workers[to].HandleMessage(m) })
}

// buildCluster creates n workers over a tiny model and dataset.
func buildCluster(t *testing.T, cfg Config, env *fakeEnv) []*Worker {
	t.Helper()
	dc := data.Config{Name: "t", NumClasses: 3, Train: 120, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.3, Jitter: 0, Bumps: 3, Seed: 4}
	tr, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(tr, env.n, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := nn.CipherSpec(1, 8, 8, 3, 77)
	ws := make([]*Worker, env.n)
	for i := range ws {
		w, err := New(i, cfg, spec.Build(), shards[i], env)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	env.workers = ws
	return ws
}

func asyncConfig() Config {
	return Config{Name: "t", LearningRate: 0.05,
		NewSelector: func() grad.Selector { return grad.Full{} },
		Batch:       core0Batch(),
		Sync:        SyncConfig{Mode: SyncAsync}}
}

func core0Batch() BatchConfig { return BatchConfig{InitialLBS: 8} }

func TestValidateConfig(t *testing.T) {
	cases := map[string]func(*Config){
		"nil selector": func(c *Config) { c.NewSelector = nil },
		"bad lr":       func(c *Config) { c.LearningRate = 0 },
		"bad lbs":      func(c *Config) { c.Batch.InitialLBS = 0 },
		"bad lambda":   func(c *Config) { c.DKT = DKTConfig{Enabled: true, Period: 10, Lambda: 2} },
		"bad period":   func(c *Config) { c.DKT = DKTConfig{Enabled: true, Period: 0, Lambda: 0.5} },
		"bad staleness": func(c *Config) {
			c.Sync = SyncConfig{Mode: SyncBounded, Staleness: 0}
		},
	}
	for name, mutate := range cases {
		c := asyncConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
	good := asyncConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestAsyncWorkersIterateIndependently(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 4}) // worker 1 is 4x slower
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(20)
	if ws[0].Iter() < 15 || ws[1].Iter() > 6 {
		t.Fatalf("iters %d/%d; async should let fast worker run ahead",
			ws[0].Iter(), ws[1].Iter())
	}
}

func TestSyncFullLockstep(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	env := newFakeEnv(2, []float64{1, 4})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(20)
	d := ws[0].Iter() - ws[1].Iter()
	if d < -1 || d > 1 {
		t.Fatalf("sync mode out of lockstep: %d vs %d", ws[0].Iter(), ws[1].Iter())
	}
	if ws[0].Iter() < 4 {
		t.Fatalf("sync cluster barely progressed: %d", ws[0].Iter())
	}
}

func TestSyncFullBlocksOnDeadPeer(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, cfg, env)
	env.dropTo[0] = true // worker 0 never receives worker 1's gradients
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(50)
	if ws[0].Iter() > 1 {
		t.Fatalf("worker 0 should be blocked after iter 1, got %d", ws[0].Iter())
	}
}

func TestBoundedStalenessSkipsStragglerUpToBound(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync = SyncConfig{Mode: SyncBounded, BackupWorkers: 1, Staleness: 5}
	env := newFakeEnv(3, []float64{1, 1, 50}) // worker 2 is a hard straggler
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(60)
	// workers 0/1 proceed without worker 2 (backup=1) but stay within
	// staleness of it: worker 2 completed 1 iteration by t=50
	if ws[0].Iter() < 5 {
		t.Fatalf("bounded worker too slow: %d", ws[0].Iter())
	}
	// the bound is enforced when *starting* an iteration, so the lead can
	// reach staleness+1 on completion
	if ws[0].Iter() > ws[2].Iter()+6 {
		t.Fatalf("staleness bound violated: %d vs %d", ws[0].Iter(), ws[2].Iter())
	}
}

func TestGradientExchangeUpdatesPeers(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	before := ws[1].Model().Param("fc2/b").W.Clone()
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(5)
	after := ws[1].Model().Param("fc2/b").W
	same := true
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("peer model unchanged; gradient exchange broken")
	}
	// gradient messages must carry sender's LBS
	found := false
	for _, m := range env.sent {
		if m.Type == wire.TypeGradient && m.LBS == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("no gradient message with LBS seen")
	}
}

func TestWeightedUpdateScalesWithLBS(t *testing.T) {
	// Two identical workers; worker 0 receives the same gradient message
	// with different sender LBS; larger LBS must produce a larger step.
	mkWorker := func() *Worker {
		env := newFakeEnv(2, []float64{1, 1})
		cfg := asyncConfig()
		cfg.Batch.WeightedUpdate = true
		ws := buildCluster(t, cfg, env)
		return ws[0]
	}
	step := func(senderLBS int32) float64 {
		w := mkWorker()
		p := w.Model().Param("fc2/b")
		before := p.W.Clone()
		sel := &grad.Selection{Var: "fc2/b", Total: p.W.Len(),
			Idx: []int32{0}, Val: []float32{1}}
		w.HandleMessage(&wire.Message{Type: wire.TypeGradient, From: 1, To: 0,
			Iter: 1, LBS: senderLBS, Selections: []*grad.Selection{sel}})
		return math.Abs(float64(p.W.Data[0] - before.Data[0]))
	}
	small, large := step(8), step(32)
	if large <= small {
		t.Fatalf("db weighting missing: step %v for LBS32 vs %v for LBS8", large, small)
	}
	if math.Abs(large/small-4) > 1e-6 {
		t.Fatalf("db ratio %v, want 4", large/small)
	}
}

func TestWeightedUpdateClamped(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	cfg := asyncConfig()
	cfg.Batch.WeightedUpdate = true
	cfg.Batch.DBClampMax = 4
	ws := buildCluster(t, cfg, env)
	w := ws[0]
	p := w.Model().Param("fc2/b")
	before := p.W.Data[0]
	sel := &grad.Selection{Var: "fc2/b", Total: p.W.Len(), Idx: []int32{0}, Val: []float32{1}}
	w.HandleMessage(&wire.Message{Type: wire.TypeGradient, From: 1, To: 0,
		Iter: 1, LBS: 8000, Selections: []*grad.Selection{sel}})
	got := math.Abs(float64(p.W.Data[0] - before))
	want := 0.05 * 4 / 2 // lr·clamp/n
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("clamped step %v, want %v", got, want)
	}
}

func TestRCPReportsDriveLBS(t *testing.T) {
	cfg := asyncConfig()
	cfg.Batch.DynamicBatching = true
	cfg.Batch.GBS = GBSConfig{Mode: "fixed"}
	env := newFakeEnv(2, []float64{1, 3}) // worker 0 is 3x faster
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	if ws[0].LBS() <= ws[1].LBS() {
		t.Fatalf("faster worker should get larger LBS: %d vs %d",
			ws[0].LBS(), ws[1].LBS())
	}
	sum := ws[0].LBS() + ws[1].LBS()
	if sum < 16 || sum > 20 {
		t.Fatalf("LBS sum %d should track GBS 16", sum)
	}
}

func TestDKTBestWorkerSharesWeights(t *testing.T) {
	cfg := asyncConfig()
	cfg.DKT = DKTConfig{Enabled: true, Period: 3, Lambda: 1}
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, cfg, env)
	// Force worker 1 to have a terrible model so worker 0 wins elections.
	for _, p := range ws[1].Model().Params() {
		p.W.Fill(0.5)
	}
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(30)
	merges := ws[0].Stats().DKTMerges + ws[1].Stats().DKTMerges
	sentW := ws[0].Stats().DKTWeightsSent + ws[1].Stats().DKTWeightsSent
	if merges == 0 || sentW == 0 {
		t.Fatalf("DKT inactive: merges=%d weightsSent=%d", merges, sentW)
	}
}

func TestDKTDisabledSendsNoWeights(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(20)
	for _, m := range env.sent {
		if m.Type == wire.TypeWeights || m.Type == wire.TypeLossReport {
			t.Fatalf("unexpected %v message with DKT disabled", m.Type)
		}
	}
}

func TestLinkBudgetPassedToSelector(t *testing.T) {
	cfg := asyncConfig()
	cfg.LinkBudget = true
	cfg.NewSelector = func() grad.Selector { return grad.NewMaxN(100) }
	env := newFakeEnv(2, []float64{1, 1})
	env.bw = 0.1 // starved link
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(6)
	full := ws[0].Model().NumParams()
	got := ws[0].LastSelectedCount(1)
	if got <= 0 || got >= full {
		t.Fatalf("budgeted selection %d of %d; want partial", got, full)
	}
	if ws[0].LastBudget(1) <= 0 {
		t.Fatal("budget not recorded")
	}
}

func TestLinkBudgetScalesWithSendScale(t *testing.T) {
	run := func(scale float64) int {
		cfg := asyncConfig()
		cfg.LinkBudget = true
		cfg.NewSelector = func() grad.Selector { return grad.NewMaxN(100) }
		env := newFakeEnv(2, []float64{1, 1})
		env.bw = 1
		env.sendScale = scale
		ws := buildCluster(t, cfg, env)
		for _, w := range ws {
			w.Start()
		}
		env.eng.Run(4)
		return ws[0].LastBudget(1)
	}
	if b1, b4 := run(1), run(4); b4 >= b1 {
		t.Fatalf("budget must shrink with wire inflation: %d vs %d", b4, b1)
	}
}

func TestWorkerStartTwicePanics(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	ws[0].Start()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	ws[0].Start()
}

func TestStatsAccumulate(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	s := ws[0].Stats()
	if s.Iters == 0 || s.MsgsSent == 0 || s.BytesSent == 0 || s.SamplesProcessed == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	if s.SamplesProcessed != s.Iters*8 {
		t.Fatalf("samples %d != iters*8 (%d)", s.SamplesProcessed, s.Iters*8)
	}
}

func TestAvgRecentLossInfBeforeTraining(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	if ws[0].AvgRecentLoss() < 1e100 {
		t.Fatal("untrained worker must report +inf-ish loss")
	}
}

func TestUnknownVariableIgnored(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	sel := &grad.Selection{Var: "nope/W", Total: 3, Idx: []int32{0}, Val: []float32{1}}
	// must not panic
	ws[0].HandleMessage(&wire.Message{Type: wire.TypeGradient, From: 1, To: 0,
		Iter: 1, LBS: 8, Selections: []*grad.Selection{sel}})
}

func TestMaxItersStopsTraining(t *testing.T) {
	cfg := asyncConfig()
	cfg.MaxIters = 5
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(100) // far more than 5 iterations of headroom
	for i, w := range ws {
		if w.Iter() != 5 {
			t.Fatalf("worker %d ran %d iters, want exactly 5", i, w.Iter())
		}
		// Peers' final-round gradients must still have been applied after the
		// budget was exhausted: each worker hears 5 rounds from its one peer.
		if got := w.Stats().MsgsRecvd; got != 5 {
			t.Fatalf("worker %d received %d msgs, want 5", i, got)
		}
	}
}

func TestMaxItersSyncFull(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.MaxIters = 7
	env := newFakeEnv(2, []float64{1, 3}) // heterogeneous speeds
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(200)
	for i, w := range ws {
		if w.Iter() != 7 {
			t.Fatalf("worker %d ran %d iters, want exactly 7", i, w.Iter())
		}
	}
}

func TestMaxItersValidation(t *testing.T) {
	c := asyncConfig()
	c.MaxIters = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative MaxIters must be rejected")
	}
}

// TestChargedIsNotWait is the core half of the Env time contract: on a
// substrate whose steps already took their time (charged 0.5, wait 0) every
// iteration completes at the virtual instant it started, is still charged 0.5
// of compute, and completes through After — behind whatever is already
// queued for that instant — rather than inline.
func TestChargedIsNotWait(t *testing.T) {
	cfg := asyncConfig()
	cfg.MaxIters = 4
	env := newFakeEnv(1, []float64{0.5})
	env.wallPaid = true
	w := buildCluster(t, cfg, env)[0]
	sink := obs.NewWorkerObs()
	w.SetObs(sink)

	seenByQueued, seenNextInstant := int64(-1), int64(-1)
	env.eng.At(0, w.Start)
	// Stands for a gradient that arrived during the first step: queued at the
	// same instant, before the step's completion is.
	env.eng.At(0, func() { seenByQueued = w.Iter() })
	env.eng.At(1e-9, func() { seenNextInstant = w.Iter() })
	env.eng.Run(1)

	if seenByQueued != 0 {
		t.Fatalf("an event queued before the step ended ran after %d completions, want 0", seenByQueued)
	}
	if seenNextInstant != cfg.MaxIters {
		t.Fatalf("%d of %d iterations had completed before virtual time moved: wait 0 must not be waited",
			seenNextInstant, cfg.MaxIters)
	}
	if got, want := sink.PhaseSeconds(obs.PhaseCompute), 0.5*float64(cfg.MaxIters); got != want {
		t.Fatalf("PhaseCompute %v over %d iterations, want %v: compute is what was charged", got, cfg.MaxIters, want)
	}
}

// TestJoinedWeightsViewMatchesJoin: while peer gradients wait behind a step
// in flight, CopyJoinedWeights gives the weights JoinStep then leaves,
// bit for bit, and changes nothing on the worker.
func TestJoinedWeightsViewMatchesJoin(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 5})
	ws := buildCluster(t, asyncConfig(), env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(3.5) // worker 0 completed at 1, 2 and 3; worker 1 steps until 5
	slow := ws[1]
	if !slow.stepping || slow.QueuedGradients() != 3 {
		t.Fatalf("stepping %v with %d gradients queued, want a step in flight with 3", slow.stepping, slow.QueuedGradients())
	}
	before := slow.Model().Checkpoint()
	view := nn.CipherSpec(1, 8, 8, 3, 77).BuildZero()
	if err := slow.CopyJoinedWeights(view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slow.Model().Checkpoint(), before) || slow.QueuedGradients() != 3 {
		t.Fatal("the view changed the worker")
	}
	if slow.Model().WeightsEqual(view) {
		t.Fatal("the view is W before the join: the queued gradients did not land on it")
	}
	slow.JoinStep()
	if !slow.Model().WeightsEqual(view) {
		t.Fatal("the view differs from W after JoinStep")
	}
}
