package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/serve"
)

const (
	// serveClients closed-loop keep-alive clients: one per core, each sends
	// its next request only once the previous answer is read.
	serveClients = 2
	// swapEvery completed requests one weight update is pushed, so the
	// number of hot-swaps is a function of the request count, not of time.
	swapEvery = 250
	// serveBodies distinct pre-built request bodies, cycled.
	serveBodies = 256
)

// serveJob is one set-up of serve_swap: a listening server with its registry
// fed from a broadcast channel, two checkpoints with manifests, pre-built
// request bodies and the class each checkpoint must answer for each body.
type serveJob struct {
	traced bool
	spec   nn.Spec
	shard  *data.Shard
	modelA *nn.Model

	ckpt [2][]byte            // index 0: checkpoint A (odd seq), 1: checkpoint B (even seq)
	man  [2]*lineage.Manifest // their lineage manifests
	want [2][]int             // want[v][b]: class of body b under checkpoint v

	bodies [][]byte
	reg    *serve.Registry
	regObs *obs.Registry // registry swap/reject counters; traced: the server's histograms too
	srv    *serve.HTTPServer
	client *http.Client
	url    string

	feed      chan []byte // what Registry.WatchBroadcasts consumes
	trig      chan struct{}
	stopWatch context.CancelFunc
	bg        sync.WaitGroup

	completed atomic.Int64
	pushed    atomic.Int64 // update frames pushed so far
	pushedB   atomic.Int64 // their bytes
	nextSeq   int64        // owned by the pusher goroutine

	// traced only
	start     time.Time
	mu        sync.Mutex
	pushAt    map[int64]int64 // seq -> ns since start the frame was pushed
	seenAt    map[int64]int64 // seq -> ns since start of the first answer carrying it
	reqSpans  []span
	genSecond float64
}

// seqVersion maps a model_seq to the checkpoint that must have answered.
func seqVersion(seq int64) int { return int((seq + 1) % 2) } // 1,3,5.. -> A(0); 2,4,.. -> B(1)

func startServe(seed uint64, traced bool) (*serveJob, error) {
	j := &serveJob{traced: traced, spec: trainSpec(seed), start: time.Now(),
		regObs: obs.NewRegistry(), pushAt: map[int64]int64{}, seenAt: map[int64]int64{}}

	t0 := time.Now()
	train, test, err := data.Generate(trainDataConfig(seed))
	if err != nil {
		return nil, err
	}
	j.genSecond = time.Since(t0).Seconds()
	shards, err := data.Partition(train, 1, seed+101)
	if err != nil {
		return nil, err
	}
	j.shard = shards[0]

	// Checkpoint A is the seeded initial model, B the same model a few SGD
	// steps later: two links of one lineage chain that answer differently.
	a := j.spec.Build()
	j.modelA = a
	j.ckpt[0] = a.Checkpoint()
	b := j.spec.Build()
	for i := 0; i < 10; i++ {
		x, y := j.shard.NextBatch(32)
		b.TrainStep(x, y)
		b.ApplySGD(0.05)
	}
	j.ckpt[1] = b.Checkpoint()
	j.man[0] = &lineage.Manifest{Schema: lineage.Schema, Model: a.ModelName,
		Digest: lineage.ModelHash(a), Iter: 100, Seed: seed}
	j.man[1] = &lineage.Manifest{Schema: lineage.Schema, Model: b.ModelName,
		Digest: lineage.ModelHash(b), Iter: 110, Seed: seed}
	j.man[1].Link(j.man[0])

	// Request bodies and the answers a direct Model.Forward gives for them.
	n := serveBodies
	if test.Len() < n {
		n = test.Len()
	}
	for v, m := range []*nn.Model{a, b} {
		j.want[v] = make([]int, n)
		for i := 0; i < n; i++ {
			logits := m.Forward(batchOf(j.spec, test.Image(i)))
			j.want[v][i] = argmax(logits.Data)
		}
	}
	for i := 0; i < n; i++ {
		body, err := json.Marshal(serve.PredictRequest{Inputs: [][]float32{test.Image(i)}})
		if err != nil {
			return nil, err
		}
		j.bodies = append(j.bodies, body)
	}

	j.reg = serve.NewRegistry(j.spec)
	j.reg.SetMetrics(j.regObs) // swap / reject counters only; cheap and needed by the checks
	if err := j.reg.PublishManifest(1, "init", j.ckpt[0], j.man[0]); err != nil {
		return nil, err
	}
	j.nextSeq = 2
	cfg := serve.Config{Registry: j.reg, MaxBatch: 16, MaxDelay: -1, Runners: 1}
	if traced {
		cfg.Metrics = j.regObs
	}
	j.srv, err = serve.Listen(cfg, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	j.url = j.srv.URL() + "/predict"
	j.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: serveClients, MaxIdleConnsPerHost: serveClients}}

	// The feed is buffered so that a client finishing request 250·k never
	// waits for the registry to take the previous update.
	j.feed = make(chan []byte, 8)
	j.trig = make(chan struct{}, 1024) // one token per due update; far more than can be outstanding
	ctx, cancel := context.WithCancel(context.Background())
	j.stopWatch = cancel
	j.bg.Add(2)
	go func() {
		defer j.bg.Done()
		j.reg.WatchBroadcasts(ctx, j.feed)
	}()
	go func() {
		defer j.bg.Done()
		j.pusher()
	}()
	return j, nil
}

// pusher plays the trainer: for every token it frames the other checkpoint
// with its manifest under the next sequence number and broadcasts it.
func (j *serveJob) pusher() {
	for range j.trig {
		seq := j.nextSeq
		j.nextSeq++
		v := seqVersion(seq)
		frame, err := serve.EncodeUpdateManifest(seq, j.man[v], j.ckpt[v])
		if err != nil {
			continue // cannot happen with a valid manifest; Swaps() would come up short
		}
		if j.traced {
			j.mu.Lock()
			j.pushAt[seq] = time.Since(j.start).Nanoseconds()
			j.mu.Unlock()
		}
		j.pushedB.Add(int64(len(frame)))
		j.pushed.Add(1)
		j.feed <- frame
	}
	close(j.feed)
}

// reply is what the client reads back from /predict.
type reply struct {
	ModelSeq    int64 `json:"model_seq"`
	Predictions []struct {
		Class int `json:"class"`
	} `json:"predictions"`
}

// driveStats is what one drive() of the load generator measured.
type driveStats struct {
	latNS     []int64    // per request, client send -> body read
	doneAt    []int64    // completion time of the k-th completed request, ns since drive start
	marks     []procMark // process meters at the start and after every n/segments requests
	failed    int64
	bytes     int64 // request + response body bytes
	firstFail string
}

// drive sends n requests from serveClients closed-loop clients and checks
// every answer against the direct forward pass of the checkpoint it names.
func (j *serveJob) drive(n int) *driveStats {
	ds := &driveStats{latNS: make([]int64, n), doneAt: make([]int64, n), marks: make([]procMark, segments+1)}
	seg := int64(max(n/segments, 1))
	var next, done, failed, nbytes atomic.Int64
	var failMu sync.Mutex
	fail := func(format string, args ...any) {
		failed.Add(1)
		failMu.Lock()
		if ds.firstFail == "" {
			ds.firstFail = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
	}
	ds.marks[0] = mark()
	t0 := ds.marks[0].at
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var lastSeq int64
			var spans []span
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				b := i % len(j.bodies)
				sent := time.Now()
				resp, err := j.client.Post(j.url, "application/json", bytes.NewReader(j.bodies[b]))
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close()
				read := time.Now()
				ds.latNS[i] = read.Sub(sent).Nanoseconds()
				nbytes.Add(int64(len(j.bodies[b]) + buf.Len()))

				var r reply
				switch {
				case err != nil:
					fail("request %d: read: %v", i, err)
				case resp.StatusCode != http.StatusOK:
					fail("request %d: status %d", i, resp.StatusCode)
				case json.Unmarshal(buf.Bytes(), &r) != nil || len(r.Predictions) != 1:
					fail("request %d: malformed answer %q", i, buf.String())
				case r.ModelSeq < lastSeq:
					fail("request %d: model_seq went back from %d to %d", i, lastSeq, r.ModelSeq)
				case r.Predictions[0].Class != j.want[seqVersion(r.ModelSeq)][b]:
					fail("request %d: class %d under model_seq %d, direct forward says %d",
						i, r.Predictions[0].Class, r.ModelSeq, j.want[seqVersion(r.ModelSeq)][b])
				}
				if j.traced {
					spans = append(spans, span{Layer: "serve", Name: "predict", Worker: c, ID: int64(i),
						Parent: -1, Start: sent.Sub(j.start).Nanoseconds(), End: read.Sub(j.start).Nanoseconds()})
					if r.ModelSeq > lastSeq { // new to this client; maybe new to all
						at := read.Sub(j.start).Nanoseconds()
						j.mu.Lock()
						if seen, ok := j.seenAt[r.ModelSeq]; !ok || at < seen {
							j.seenAt[r.ModelSeq] = at
						}
						j.mu.Unlock()
					}
				}
				if r.ModelSeq > lastSeq {
					lastSeq = r.ModelSeq
				}
				k := done.Add(1)
				ds.doneAt[k-1] = read.Sub(t0).Nanoseconds()
				if k%seg == 0 && k/seg <= segments {
					ds.marks[k/seg] = mark() // k is unique, so each mark has one writer
				}
				if j.completed.Add(1)%swapEvery == 0 {
					j.trig <- struct{}{}
				}
			}
			if j.traced {
				j.mu.Lock()
				j.reqSpans = append(j.reqSpans, spans...)
				j.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ds.failed, ds.bytes = failed.Load(), nbytes.Load()
	return ds
}

// awaitSwaps waits until the registry has taken every update pushed so far.
func (j *serveJob) awaitSwaps() bool {
	want := 1 + j.completed.Load()/swapEvery
	deadline := time.Now().Add(10 * time.Second)
	for j.reg.Swaps() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func (j *serveJob) close() {
	close(j.trig) // the pusher drains its tokens, then closes the feed, which ends the watcher
	j.bg.Wait()
	j.stopWatch()
	j.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	j.srv.Shutdown(ctx)
}

// setupServe is one full set-up: build, listen, warm up (swaps included).
func setupServe(seed uint64, warm int, traced bool) (*serveJob, error) {
	j, err := startServe(seed, traced)
	if err != nil {
		return nil, err
	}
	ds := j.drive(warm)
	if ds.failed > 0 || !j.awaitSwaps() {
		j.close()
		return nil, fmt.Errorf("serve_swap: warm-up: %d of %d requests failed (%s), swaps %d",
			ds.failed, warm, ds.firstFail, j.reg.Swaps())
	}
	return j, nil
}

func runServe(seed uint64, sz size, traced bool) (*outcome, error) {
	out := newOutcome("serve_swap", traced)
	var setups []float64
	from := setupFrom()
	var j *serveJob
	for i := 0; i < setupRepeats; i++ {
		if j != nil {
			j.close()
		}
		var err error
		j, err = setupServe(seed, sz.warm, traced && i == setupRepeats-1)
		if err != nil {
			return nil, err
		}
		now := time.Now()
		setups = append(setups, now.Sub(from).Seconds())
		from = now
	}
	defer j.close()

	pushed0, pushedB0 := j.pushed.Load(), j.pushedB.Load()
	ds := j.drive(sz.timed)
	start, end := ds.marks[0], ds.marks[segments]
	swapsLanded := j.awaitSwaps()

	out.attempted = int64(sz.timed)
	if ds.failed > 0 {
		out.fail(ds.failed, "%d requests failed; first: %s", ds.failed, ds.firstFail)
	}
	seg := sz.timed / segments
	bounds := []int64{0}
	for s := 1; s <= segments; s++ {
		bounds = append(bounds, ds.doneAt[s*seg-1])
	}
	lat := make([]float64, 0, sz.timed)
	for _, ns := range ds.latNS {
		lat = append(lat, float64(ns)/1e6)
	}
	updateBytes := j.pushedB.Load() - pushedB0
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = medianRate(bounds, float64(seg))
	out.e2e["lat_p50_ms"] = percentile(lat, 0.50)
	out.latP99 = percentile(lat, 0.99)
	out.e2e["alloc_mb_per_kop"] = allocMBPerKop(ds.marks, int64(seg))
	out.e2e["wire_kb_per_op"] = float64(ds.bytes+updateBytes) / 1e3 / float64(sz.timed)
	out.wireBytes = ds.bytes + updateBytes
	out.swaps = j.pushed.Load() - pushed0

	wantSwaps := 1 + int64(sz.warm+sz.timed)/swapEvery
	if !swapsLanded || j.reg.Swaps() != wantSwaps {
		out.fail(1, "Registry.Swaps() = %d, want %d", j.reg.Swaps(), wantSwaps)
	}
	snap := j.regObs.Snapshot()
	if r := snap["serve.manifest_rejects"] + snap["serve.swap_rejected"] + snap["serve.swap_stale"]; r > 0 {
		out.fail(r, "registry refused %d updates (%v)", r, snap)
	}

	if traced {
		j.ledger(out, sz, start, end, lat, snap)
	}
	return out, nil
}

// ledger fills the per-layer metrics of a traced serve run.
func (j *serveJob) ledger(out *outcome, sz size, start, end procMark, lat []float64, snap map[string]int64) {
	m := out.layer
	procLayer(m, start, end, int64(sz.timed))

	// serve: the server's own registry (admission -> response), whole run.
	sum := j.regObs.Histogram("serve.latency").Summary()
	m["serve.server_lat_p50_ms"] = sum.P50 * 1e3
	m["serve.server_lat_p99_ms"] = sum.P99 * 1e3
	m["serve.lat_p99_ms"] = out.latP99
	m["serve.client_overhead_ms"] = out.e2e["lat_p50_ms"] - sum.P50*1e3
	m["serve.batch_fill_mean"] = j.regObs.Histogram("serve.batch_fill").Mean()
	m["serve.sheds"] = float64(snap["serve.sheds"])
	m["serve.manifest_rejects"] = float64(snap["serve.manifest_rejects"])

	// frame pushed -> first answer carrying the new model_seq
	var visible []float64
	j.mu.Lock()
	for seq, at := range j.pushAt {
		if seen, ok := j.seenAt[seq]; ok && seen > at {
			visible = append(visible, float64(seen-at)/1e6)
			out.spans = append(out.spans, span{Layer: "serve", Name: "swap_visible", ID: seq,
				Parent: -1, Start: at, End: seen})
		}
	}
	out.spans = append(out.spans, j.reqSpans...)
	j.mu.Unlock()
	m["serve.swap_visible_ms"] = median(visible)

	// direct calls: the swap path piece by piece on a scratch registry
	frame, err := serve.EncodeUpdateManifest(7, j.man[0], j.ckpt[0])
	if err == nil {
		m["serve.update_decode_ms"] = timeCalls(probeK, func() { serve.DecodeUpdateAny(frame) }) / 1e6
	}
	scratch := serve.NewRegistry(j.spec)
	seq := int64(0)
	m["serve.swap_ms"] = timeCalls(probeK, func() {
		seq++
		v := seqVersion(seq)
		if err := scratch.PublishManifest(seq, "probe", j.ckpt[v], j.man[v]); err != nil {
			panic(err) // the same pair the workload just swapped in
		}
	}) / 1e6
	probeModelHash(m, j.modelA)
	probeModel(m, j.spec, j.shard, 0)
	m["data.generate_s"] = j.genSecond
}

func argmax(v []float32) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
