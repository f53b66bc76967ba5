package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/tensor"
)

// trainWorkers is the worker-group size of both train workloads: the box has
// two cores, and with two workers every worker has exactly one peer, so
// frame k on a link is iteration k+1.
const trainWorkers = 2

// trainKind is what differs between the two train workloads. Everything
// else (path, model, data, seeds, sync discipline) is shared, so a change in
// one layer shows on the workload that leans on it and not on its mirror.
type trainKind struct {
	name     string
	dense    bool // every replica applies every gradient value, so replicas agree
	lbs      int
	selector func() grad.Selector
	prec     grad.Precision
}

var (
	// Dense f32 at LBS 2: a 1.37 MB frame per iteration, little math.
	trainWire = trainKind{name: "train_wire", dense: true, lbs: 2,
		selector: func() grad.Selector { return grad.Full{} }, prec: grad.PrecF32}
	// Max-N 10 % + int8 at LBS 32: sub-KB frames, the kernels dominate.
	trainCompute = trainKind{name: "train_compute", lbs: 32,
		selector: func() grad.Selector { return grad.NewMaxN(10) }, prec: grad.PrecI8}
)

func trainDataConfig(seed uint64) data.Config {
	return data.Config{Name: "bench-train", NumClasses: 10, Train: 4096, Test: 256,
		Channels: 1, Height: 16, Width: 16, Noise: 0.9, Jitter: 2, Bumps: 4, Seed: seed}
}

func trainSpec(seed uint64) nn.Spec { return nn.CipherSpec(1, 16, 16, 10, seed+1000) }

// tap is the realtime.Transport shim both runs use. Untraced it costs one
// time.Now() per frame; traced it also times Send and Recv and keeps a few
// frames for the wire probes. Send runs on the node's single per-peer sender
// goroutine and Recv on its receive pump, so each side owns its fields.
type tap struct {
	realtime.Transport
	job *trainJob
	id  int

	// sender side
	sent      int
	ts        []int64 // ts[k]: frame k entered Send, ns since job start
	wireBytes int64   // Σ len(payload) over the timed frames
	sendNS    int64   // time inside Transport.Send, timed frames (traced)
	sendSpans []span
	frames    [][]byte // captured timed frames for the wire probes (traced)
	frameCap  int      // bytes still allowed into frames

	// receiver side
	recvs      int
	recvWaitNS int64 // time blocked in Transport.Recv, timed frames (traced)
	recvSpans  []span
}

func (t *tap) Send(to int, p []byte) error {
	now := time.Now()
	j := t.job
	k := t.sent
	t.sent++
	if k < len(t.ts) {
		t.ts[k] = now.Sub(j.start).Nanoseconds()
	}
	timed := k >= j.warm
	if timed {
		t.wireBytes += int64(len(p))
	}
	if off := k - (j.warm - 1); off >= 0 && off%j.seg == 0 {
		j.marks[off/j.seg].arrive()
	}
	if !j.traced {
		return t.Transport.Send(to, p)
	}
	err := t.Transport.Send(to, p)
	end := time.Now()
	if timed {
		t.sendNS += end.Sub(now).Nanoseconds()
		t.sendSpans = append(t.sendSpans, span{Layer: "queue", Name: "send", Worker: t.id,
			ID: int64(k + 1), Parent: -1, Start: now.Sub(j.start).Nanoseconds(),
			End: end.Sub(j.start).Nanoseconds()})
		if len(t.frames) < 100 && len(p) <= t.frameCap {
			t.frames = append(t.frames, p)
			t.frameCap -= len(p)
		}
	}
	return err
}

func (t *tap) Recv() ([]byte, error) {
	j := t.job
	if !j.traced {
		return t.Transport.Recv()
	}
	t0 := time.Now()
	p, err := t.Transport.Recv()
	if err != nil {
		return p, err
	}
	t1 := time.Now()
	k := t.recvs
	t.recvs++
	if k >= j.warm {
		t.recvWaitNS += t1.Sub(t0).Nanoseconds()
		t.recvSpans = append(t.recvSpans, span{Layer: "queue", Name: "recv_wait", Worker: t.id,
			ID: int64(k + 1), Parent: -1, Start: t0.Sub(j.start).Nanoseconds(),
			End: t1.Sub(j.start).Nanoseconds()})
	}
	return p, nil
}

// boundary fires once every worker has sent a given frame: the last arrival
// reads the process meters, so the reading sits exactly on the boundary.
type boundary struct {
	need int32
	hit  atomic.Int32
	m    procMark
	done chan struct{}
}

func newBoundary(n int) *boundary { return &boundary{need: int32(n), done: make(chan struct{})} }

func (b *boundary) arrive() {
	if b.hit.Add(1) == b.need {
		b.m = mark()
		close(b.done)
	}
}

// tracedSelector times a grad.Selector from outside. Select runs on the
// node's event-loop goroutine only.
type tracedSelector struct {
	inner   grad.Selector
	job     *trainJob
	worker  int
	calls   int64
	ns      int64
	kept    int64
	entries int64
	spans   []span
}

func (s *tracedSelector) Name() string { return s.inner.Name() }

func (s *tracedSelector) Select(to int, params []*nn.Param, budget int) []*grad.Selection {
	t0 := time.Now()
	out := s.inner.Select(to, params, budget)
	t1 := time.Now()
	s.calls++
	if s.calls > int64(s.job.warm) {
		s.ns += t1.Sub(t0).Nanoseconds()
		s.kept += int64(grad.TotalCount(out))
		for _, p := range params {
			s.entries += int64(p.G.Len())
		}
		s.spans = append(s.spans, span{Layer: "grad", Name: "select", Worker: s.worker,
			ID: s.calls, Parent: -1, Start: t0.Sub(s.job.start).Nanoseconds(),
			End: t1.Sub(s.job.start).Nanoseconds()})
	}
	return out
}

// invariantSelector forwards the grad.LinkInvariant marker, so wrapping a
// Full or Max-N selector leaves the worker's selection cache on.
type invariantSelector struct{ *tracedSelector }

func (invariantSelector) LinkInvariantSelection() {}

// trainJob is one set-up of a train workload: broker, TCP server, two nodes
// running warm+timed iterations.
type trainJob struct {
	kind   trainKind
	seed   uint64
	warm   int
	total  int
	traced bool
	start  time.Time

	// marks[s] fires when every worker has sent the frame that ends segment s
	// of the timed section; marks[0] ends the warm-up. seg is a segment's
	// iterations per worker.
	marks []*boundary
	seg   int

	broker *queue.Broker
	srv    *queue.Server
	reg    *obs.Registry
	nodes  []*realtime.Node
	taps   []*tap
	sels   []*tracedSelector
	wobs   []*obs.WorkerObs
	test   *data.Dataset
	shards []*data.Shard

	genSeconds float64

	cancel context.CancelFunc
	wg     sync.WaitGroup
	runErr chan error
}

// startTrain builds everything a train run needs from seed and starts the
// nodes; warm-up iterations begin immediately.
func startTrain(kind trainKind, seed uint64, warm, timed int, traced bool) (*trainJob, error) {
	j := &trainJob{kind: kind, seed: seed, warm: warm, total: warm + timed, traced: traced,
		start: time.Now(), seg: max(timed/segments, 1),
		reg: obs.NewRegistry(), runErr: make(chan error, trainWorkers)}
	for s := 0; s <= timed/j.seg; s++ {
		j.marks = append(j.marks, newBoundary(trainWorkers))
	}

	t0 := time.Now()
	train, test, err := data.Generate(trainDataConfig(seed))
	if err != nil {
		return nil, err
	}
	j.genSeconds = time.Since(t0).Seconds()
	j.test = test
	j.shards, err = data.Partition(train, trainWorkers, seed+101)
	if err != nil {
		return nil, err
	}

	j.broker = queue.NewBroker()
	if traced {
		j.broker.SetMetrics(j.reg)
	}
	j.srv, err = queue.Serve(j.broker, "127.0.0.1:0")
	if err != nil {
		j.broker.Close()
		return nil, err
	}

	sys := core.Config{
		Name:         kind.name,
		LearningRate: 0.05,
		Sync:         core.SyncConfig{Mode: core.SyncFull},
		Batch:        core.BatchConfig{InitialLBS: kind.lbs},
		MaxIters:     int64(j.total),
		Quant:        core.QuantConfig{Precision: kind.prec},
		OrderedApply: true,
	}
	for i := 0; i < trainWorkers; i++ {
		i := i
		ct, err := realtime.NewClientTransport(j.srv.Addr(), i)
		if err != nil {
			j.close()
			return nil, err
		}
		tp := &tap{Transport: ct, job: j, id: i, ts: make([]int64, j.total), frameCap: 8 << 20}
		j.taps = append(j.taps, tp)
		nodeSys := sys
		nodeSys.NewSelector = kind.selector
		cfg := realtime.Config{ID: i, N: trainWorkers, Spec: trainSpec(seed),
			Shard: j.shards[i], Transport: tp, Metrics: j.reg}
		if traced {
			ct.SetMetrics(j.reg)
			cfg.Obs = obs.NewWorkerObs()
			j.wobs = append(j.wobs, cfg.Obs)
			nodeSys.NewSelector = func() grad.Selector {
				ts := &tracedSelector{inner: kind.selector(), job: j, worker: i}
				j.sels = append(j.sels, ts)
				if _, ok := ts.inner.(grad.LinkInvariant); ok {
					return invariantSelector{ts}
				}
				return ts
			}
		}
		cfg.System = nodeSys
		node, err := realtime.NewNode(cfg)
		if err != nil {
			j.close()
			return nil, err
		}
		j.nodes = append(j.nodes, node)
	}

	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	for _, nd := range j.nodes {
		j.wg.Add(1)
		go func(nd *realtime.Node) {
			defer j.wg.Done()
			if err := nd.Run(ctx); err != nil {
				j.runErr <- err
			}
		}(nd)
	}
	return j, nil
}

// wait blocks until b fires, a node fails, or the run is clearly stuck.
func (j *trainJob) wait(b *boundary) error {
	select {
	case <-b.done:
		return nil
	case err := <-j.runErr:
		return fmt.Errorf("%s: node: %w", j.kind.name, err)
	case <-time.After(150 * time.Second):
		return fmt.Errorf("%s: no progress (frames sent: %d, %d of %d)",
			j.kind.name, j.taps[0].sent, j.taps[1].sent, j.total)
	}
}

// settle waits until every node has spent its budget and applied every
// peer's final gradient — the state the output checks read.
func (j *trainJob) settle() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	want := int64(trainWorkers-1) * int64(j.total)
	for _, nd := range j.nodes {
		for {
			var done bool
			if err := nd.Inspect(ctx, func(w *core.Worker) {
				done = w.Iter() == int64(j.total) && w.Stats().MsgsRecvd == want
			}); err != nil {
				return fmt.Errorf("%s: settle: %w", j.kind.name, err)
			}
			if done {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops the nodes and tears the transport stack down, waiting for
// every goroutine the job started.
func (j *trainJob) close() {
	if j.cancel != nil {
		j.cancel()
		j.wg.Wait()
	}
	for _, nd := range j.nodes {
		nd.FlushSends(2 * time.Second)
	}
	for _, t := range j.taps {
		t.Transport.Close()
	}
	if j.srv != nil {
		j.srv.Close()
	}
	j.broker.Close()
}

// runTrain runs one train workload: set-up (three times, the last one kept),
// the timed section, the output checks and, when traced, the layer ledger.
func runTrain(kind trainKind, seed uint64, sz size, traced bool) (*outcome, error) {
	out := newOutcome(kind.name, traced)
	var setups []float64
	from := setupFrom()
	for i := 0; i < setupRepeats-1; i++ {
		j, err := startTrain(kind, seed, sz.warm, 0, false)
		if err != nil {
			return nil, err
		}
		err = j.wait(j.marks[0])
		setups = append(setups, j.marks[0].m.at.Sub(from).Seconds())
		if err == nil {
			err = j.settle()
		}
		j.close()
		if err != nil {
			return nil, err
		}
		from = time.Now()
	}

	j, err := startTrain(kind, seed, sz.warm, sz.timed, traced)
	if err != nil {
		return nil, err
	}
	defer j.close()
	if err := j.wait(j.marks[0]); err != nil {
		return nil, err
	}
	setups = append(setups, j.marks[0].m.at.Sub(from).Seconds())
	if err := j.wait(j.marks[segments]); err != nil {
		return nil, err
	}
	settleErr := j.settle()

	// --- end-to-end metrics, all taken from the tap and the boundary marks ---
	ops := int64(trainWorkers * sz.timed)
	out.attempted = ops
	seg := sz.timed / segments
	bounds := make([]int64, segments+1)
	for s := range bounds {
		k := sz.warm - 1 + s*seg
		for _, t := range j.taps {
			if t.ts[k] > bounds[s] {
				bounds[s] = t.ts[k] // a boundary is crossed when the last worker crosses it
			}
		}
	}
	var gaps []float64
	var wireBytes int64
	for _, t := range j.taps {
		for k := sz.warm; k < j.total; k++ {
			gaps = append(gaps, float64(t.ts[k]-t.ts[k-1])/1e6)
		}
		wireBytes += t.wireBytes
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = medianRate(bounds, float64(trainWorkers*seg))
	out.e2e["lat_p50_ms"] = percentile(gaps, 0.50)
	out.latP99 = percentile(gaps, 0.99)
	marks := make([]procMark, len(j.marks))
	for s, b := range j.marks {
		marks[s] = b.m
	}
	out.e2e["alloc_mb_per_kop"] = allocMBPerKop(marks, int64(trainWorkers*seg))
	out.e2e["wire_kb_per_op"] = float64(wireBytes) / 1e3 / float64(ops)
	out.wireBytes = wireBytes

	// --- output checks ---
	if settleErr != nil {
		out.fail(ops, "%v", settleErr)
	}
	var weights []map[string]*tensor.Tensor
	var lossFinal float64
	var msgs int64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, nd := range j.nodes {
		var iters, recvd int64
		var w map[string]*tensor.Tensor
		if err := nd.Inspect(ctx, func(wk *core.Worker) {
			iters, recvd = wk.Iter(), wk.Stats().MsgsRecvd
			if kind.dense {
				w = wk.Model().Weights()
			}
			if i == 0 {
				_, lossFinal = wk.Model().Evaluate(j.test, 64)
				out.digest = uint64(lineage.ModelHash(wk.Model()))
			}
		}); err != nil {
			out.fail(ops, "worker %d: inspect: %v", i, err)
			continue
		}
		if missing := int64(j.total) - iters; missing > 0 {
			out.fail(missing, "worker %d completed %d of %d iterations", i, iters, j.total)
		}
		if want := int64(trainWorkers-1) * int64(j.total); recvd != want {
			out.fail(1, "worker %d received %d gradient messages, want %d", i, recvd, want)
		}
		if kind.dense {
			weights = append(weights, w)
		}
		msgs += recvd
	}
	// Under dense exchange both replicas applied the same gradients, each its
	// own first, so they agree to float32 rounding, not to the bit. Under
	// Max-N each keeps its own full gradient and gets a tenth of its peer's.
	var gap float64
	for i := 1; i < len(weights); i++ {
		gap = maxWeightGap(weights[0], weights[i])
		if !(gap <= replicaTolerance) {
			out.fail(1, "replicas 0 and %d differ by %.3g (tolerance %.3g)", i, gap, replicaTolerance)
		}
	}
	fmt.Printf("%s: final test loss %.6f, worker 0 digest %016x, replica gap %.3g\n",
		kind.name, lossFinal, out.digest, gap)
	out.lossFinal = lossFinal
	// Half of chance level (ln 10), held against runs at least as long as the
	// recorded one; the tests' few dozen iterations cannot get there.
	if limit := 0.5 * math.Log(10); sz.timed >= sizeFor(kind.name, defaultSeconds).timed && !(lossFinal < limit) {
		out.fail(1, "final test loss %.4f not below %.4f", lossFinal, limit)
	}
	if ref, ok := referenceLoss(kind.name, seed, sz); ok && !(math.Abs(lossFinal-ref) <= lossTolerance(ref)) {
		out.fail(1, "final test loss %.6f is more than %.4f from the recorded %.6f", lossFinal, lossTolerance(ref), ref)
	}
	snap := j.reg.Snapshot()
	if d := snap["realtime.fifo_drops"]; d > 0 {
		out.fail(d, "realtime.fifo_drops = %d", d)
	}

	if traced {
		j.ledger(out, sz, bounds, msgs, snap)
	}
	return out, nil
}

// ledger fills the per-layer metrics of a traced train run.
func (j *trainJob) ledger(out *outcome, sz size, bounds []int64, msgs int64, snap map[string]int64) {
	m := out.layer
	ops := float64(trainWorkers * sz.timed)
	procLayer(m, j.marks[0].m, j.marks[segments].m, int64(ops))

	// core: the worker's own phase clock (obs.WorkerObs), whole run.
	phases := make([]float64, obs.NumPhases)
	for _, o := range j.wobs {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			phases[p] += o.PhaseSeconds(p)
		}
	}
	setPhaseShares(m, phases)
	m["core.loss_final"] = out.lossFinal
	m["core.msgs_per_op"] = float64(msgs) / float64(trainWorkers*j.total)

	// realtime: what is left of the iteration period once the phases the
	// worker accounts for are taken out — event loop, timers, hand-offs.
	allIters := float64(trainWorkers * j.total)
	periodMS := float64(bounds[len(bounds)-1]-bounds[0]) / 1e6 / float64(sz.timed)
	busyMS := (phases[obs.PhaseCompute] + phases[obs.PhaseSerialize] + phases[obs.PhaseApply]) * 1e3 / allIters
	m["realtime.self_ms"] = periodMS - busyMS
	m["realtime.lat_p99_ms"] = out.latP99
	m["realtime.fifo_drops"] = float64(snap["realtime.fifo_drops"])
	m["realtime.send_queue_depth_max"] = float64(j.reg.Gauge("realtime.send_queue_depth").Max())

	// grad: the selector wrapper.
	var selNS, selCalls, kept, entries int64
	for _, s := range j.sels {
		selNS += s.ns
		selCalls += s.calls - int64(j.warm)
		kept += s.kept
		entries += s.entries
		out.spans = append(out.spans, s.spans...)
	}
	if selCalls > 0 {
		m["grad.select_ms"] = float64(selNS) / 1e6 / float64(selCalls)
		m["grad.select_calls_per_op"] = float64(selCalls) / ops
		m["grad.kept_ratio"] = float64(kept) / float64(entries)
	}

	// queue: the transport wrapper and the broker's own registry.
	var sendNS, recvNS, wireBytes int64
	var frames [][]byte
	for _, t := range j.taps {
		sendNS += t.sendNS
		recvNS += t.recvWaitNS
		wireBytes += t.wireBytes
		frames = append(frames, t.frames...)
		out.spans = append(out.spans, t.sendSpans...)
		out.spans = append(out.spans, t.recvSpans...)
	}
	m["queue.send_ms"] = float64(sendNS) / 1e6 / ops
	m["queue.recv_wait_ms"] = float64(recvNS) / 1e6 / ops
	if sendNS > 0 {
		m["queue.send_mb_per_s"] = float64(wireBytes) / 1e6 / (float64(sendNS) / 1e9)
	}
	m["queue.list_depth_max"] = float64(j.reg.Gauge("queue.list_depth").Max())
	m["queue.reconnect_attempts"] = float64(snap["queue.reconnect_attempts"])
	m["wire.frame_kb"] = float64(wireBytes) / 1e3 / ops
	m["wire.frames_per_op"] = 1 // one peer, one frame per iteration; checked by msgs_per_op

	// iteration spans: frame k-1 to frame k on each link, with the select,
	// send and recv-wait spans of the same (worker, iteration) as children.
	j.iterationSpans(out)

	// direct calls into public functions on captured inputs
	probeWire(m, frames)
	probeQueueRTT(m, j.srv.Addr(), int(float64(wireBytes)/ops))
	probeModel(m, trainSpec(j.seed), j.shards[0], j.kind.lbs)
	m["data.generate_s"] = j.genSeconds
}

// iterationSpans adds one root span per (worker, timed iteration) — frame k-1
// to frame k on the worker's link — and hangs each layer span recorded so far
// under the iteration of its worker during which it started. A span keeps
// the id of the iteration whose gradient it handled, which for a send is the
// one before: frames leave while the next iteration computes.
func (j *trainJob) iterationSpans(out *outcome) {
	layerSpans := out.spans
	out.spans = nil
	first := make([]int, trainWorkers) // index of worker w's first iteration span
	for _, t := range j.taps {
		first[t.id] = len(out.spans)
		for k := j.warm; k < j.total; k++ {
			out.spans = append(out.spans, span{Layer: "realtime", Name: "iteration", Worker: t.id,
				ID: int64(k + 1), Parent: -1, Start: t.ts[k-1], End: t.ts[k]})
		}
	}
	for _, s := range layerSpans {
		ts := j.taps[s.Worker].ts
		k := sort.Search(len(ts), func(i int) bool { return ts[i] > s.Start })
		if k >= j.warm && k < j.total {
			s.Parent = first[s.Worker] + k - j.warm
		}
		out.spans = append(out.spans, s)
	}
}

// replicaTolerance bounds how far apart two replicas' weights may end up.
const replicaTolerance = 1e-3

// maxWeightGap is the largest absolute difference between two weight maps
// (infinite when their variables do not line up).
func maxWeightGap(a, b map[string]*tensor.Tensor) float64 {
	gap := 0.0
	for name, ta := range a {
		tb := b[name]
		if tb == nil || len(tb.Data) != len(ta.Data) {
			return math.Inf(1)
		}
		for i, v := range ta.Data {
			if d := math.Abs(float64(v - tb.Data[i])); d > gap || d != d {
				gap = d
			}
		}
	}
	return gap
}

// setPhaseShares writes the five core.phase_*_share metrics from accumulated
// phase seconds indexed by obs.Phase.
func setPhaseShares(m map[string]float64, phases []float64) {
	shares := phaseShares(phases)
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m["core.phase_"+p.String()+"_share"] = shares[p]
	}
}
