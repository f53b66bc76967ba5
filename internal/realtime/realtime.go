// Package realtime runs DLion workers over wall-clock time and a real
// message transport (the Redis-substitute broker from internal/queue),
// demonstrating that the worker logic in internal/core is not bound to the
// simulator. Each node hosts one worker on a single-threaded event loop:
// timers and incoming messages are serialized onto the loop, which is the
// concurrency contract core.Worker requires.
package realtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlion/internal/bufpool"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// Transport moves encoded messages between workers. Implementations:
// BrokerTransport (in-process broker) and ClientTransport (TCP broker).
//
// A frame has exactly one owner (DESIGN.md §9). Send takes ownership of
// payload, whether or not it succeeds: the caller must not read, reuse or
// recycle it afterwards, because the transport (or the receiver it hands the
// slice to) recycles it through bufpool.Bytes once the last reader is done.
// Recv gives ownership to the caller, who recycles the frame after decoding
// it. A wrapper that wants to keep a frame it forwards must copy it.
type Transport interface {
	// Send delivers payload to the worker with the given id.
	Send(to int, payload []byte) error
	// Recv blocks until a payload addressed to this node arrives. It
	// returns an error when the transport closes.
	Recv() ([]byte, error)
	Close() error
}

// Config assembles one real-mode node.
type Config struct {
	ID     int
	N      int
	System core.Config
	Spec   nn.Spec
	Shard  *data.Shard

	Transport Transport

	// Bandwidth reports the assumed available Mbps towards a peer (the
	// network monitor's answer in real mode, where we cannot introspect the
	// kernel). Nil defaults to 100 Mbps everywhere.
	Bandwidth func(to int) float64

	// Obs, when non-nil, records this node's wall-clock phase breakdown
	// (compute/serialize/send/recv-wait/apply) and per-class transfer
	// counters. Nil disables tracing at zero cost (see METRICS.md).
	Obs *obs.WorkerObs

	// Metrics, when non-nil, receives the node's named counters:
	// realtime.fifo_drops and the realtime.send_queue_depth gauge.
	Metrics *obs.Registry
}

// Node hosts one worker over wall time.
type Node struct {
	cfg    Config
	worker *core.Worker
	loop   chan func()
	start  time.Time

	evStart time.Time         // when the currently-executing event began
	scratch *nn.Model         // ProfileCompute's replica, built on first probe
	ws      *tensor.Workspace // the arena the worker's training steps draw from

	// Per-peer FIFO senders: outbound messages to one peer are serialized
	// through a single goroutine so a stale weight snapshot can never
	// overtake a fresher one (goroutine-per-message made delivery order a
	// scheduler lottery). The queues are bounded; when one fills, the
	// oldest message is dropped, like a congested link's tail-drop — fresh
	// state is worth more than stale state.
	sendMu  sync.Mutex
	senders map[int]chan []byte
	done    chan struct{} // closed when Run exits; stops the senders

	// sendPending counts messages enqueued but not yet handed to the
	// transport (or shed), so FlushSends can tell when the FIFOs are dry.
	sendPending atomic.Int64

	// Counter handles resolved from cfg.Metrics at construction (nil-safe
	// no-ops when no registry is configured).
	fifoDrops *obs.Counter
	sendDepth *obs.Gauge
}

// sendQueueDepth bounds each per-peer outbound queue.
const sendQueueDepth = 256

// realEnv adapts the Node to core.Env.
type realEnv struct{ n *Node }

func (e realEnv) Now() float64 { return time.Since(e.n.start).Seconds() }

func (e realEnv) After(d float64, fn func()) {
	if d > 0 {
		time.AfterFunc(time.Duration(d*float64(time.Second)), func() { e.n.loop <- fn })
		return
	}
	// Back of the loop, never inline: events already queued run first. The
	// caller is the loop goroutine itself, so a blocking send into a full loop
	// would deadlock; only then does a goroutine carry fn (and lose its place).
	select {
	case e.n.loop <- fn:
	default:
		go func() { e.n.loop <- fn }()
	}
}

func (e realEnv) NumWorkers() int    { return e.n.cfg.N }
func (e realEnv) SendScale() float64 { return 1 }

func (e realEnv) Bandwidth(_, to int) float64 {
	if e.n.cfg.Bandwidth != nil {
		return e.n.cfg.Bandwidth(to)
	}
	return 100
}

// Step runs the step inline on the node's arena — the event loop is real
// mode's one step slot — and charges the iteration what the current event
// has run for, by then the real compute duration. It leaves nothing to
// wait: that wall time is already spent. The worker still holds the step
// until completion joins it, so gradients that arrive before then queue
// behind it and land in the same order as they would have on arrival.
func (e realEnv) Step(_, _ int, run func(ws *tensor.Workspace)) (charged, wait float64) {
	run(e.n.ws)
	return max(time.Since(e.n.evStart).Seconds(), 1e-3), 0
}

// Join reports the step as run: Step ran it inline.
func (e realEnv) Join(int) bool { return true }

// ProfileCompute measures actual TrainStep wall time at each batch size on
// the node's scratch replica (zero-built once, then given the live weights
// before each probe), so profiling never perturbs the live model.
func (e realEnv) ProfileCompute(_ int, batches []int) (x, y []float64) {
	if e.n.scratch == nil {
		e.n.scratch = e.n.cfg.Spec.BuildZero()
	}
	if err := e.n.scratch.CopyWeightsFrom(e.n.worker.Model()); err != nil {
		panic(err) // same spec, same shapes: cannot fail
	}
	for _, b := range batches {
		xb, yb := e.n.cfg.Shard.NextBatch(b)
		t0 := time.Now()
		e.n.scratch.TrainStep(xb, yb)
		x = append(x, float64(b))
		y = append(y, time.Since(t0).Seconds())
	}
	return x, y
}

func (e realEnv) Send(_, to int, m *wire.Message) {
	o := e.n.cfg.Obs
	if o == nil {
		e.n.enqueue(to, wire.Encode(m))
		return
	}
	t0 := time.Now()
	payload := wire.Encode(m)
	o.AddPhase(obs.PhaseSerialize, time.Since(t0).Seconds())
	e.n.enqueue(to, payload)
}

// enqueue hands payload to the destination's FIFO sender, spawning it on
// first use. Called only from the event-loop goroutine.
func (n *Node) enqueue(to int, payload []byte) {
	n.sendMu.Lock()
	ch := n.senders[to]
	if ch == nil {
		ch = make(chan []byte, sendQueueDepth)
		n.senders[to] = ch
		go n.sendLoop(to, ch)
	}
	n.sendMu.Unlock()
	n.sendPending.Add(1)
	for {
		select {
		case ch <- payload:
			n.sendDepth.Set(int64(len(ch)))
			return
		default:
			// full: shed the oldest queued message and retry
			select {
			case old := <-ch:
				bufpool.Bytes.Put(old)
				n.sendPending.Add(-1)
				n.fifoDrops.Inc()
			default:
			}
		}
	}
}

// trySend hands one frame to the transport, recording send-phase time when
// tracing is on. A send error drops the frame, like a partitioned link.
func (n *Node) trySend(to int, p []byte) error {
	defer n.sendPending.Add(-1)
	if o := n.cfg.Obs; o != nil {
		t0 := time.Now()
		err := n.cfg.Transport.Send(to, p)
		o.AddPhase(obs.PhaseSend, time.Since(t0).Seconds())
		return err
	}
	return n.cfg.Transport.Send(to, p)
}

// sendLoop drains one peer's queue. Like the receive pump, it can outlive
// Run while blocked inside Transport.Send (e.g. a reconnecting transport
// retrying against a dead broker); the owner's Transport.Close unblocks
// that send, after which the closed done channel retires the loop. Run
// must NOT wait on sendLoops — the caller only closes the transport after
// Run returns, so waiting here would deadlock the shutdown.
//
// When done closes, the loop flushes whatever is already queued — a
// stopping worker's final broadcasts live here — stopping at the first
// transport error. Callers that need the flush to have happened before
// closing the transport should gate on FlushSends.
// A retired peer's channel is closed (see retireSender): the loop flushes
// what is already queued, then exits on the closed-channel read.
func (n *Node) sendLoop(to int, ch chan []byte) {
	for {
		select {
		case <-n.done:
			for {
				select {
				case p, ok := <-ch:
					if !ok {
						return
					}
					if err := n.trySend(to, p); err != nil {
						for { // transport gone: discard the remainder
							select {
							case _, ok := <-ch:
								if !ok {
									return
								}
								n.sendPending.Add(-1)
							default:
								return
							}
						}
					}
				default:
					return
				}
			}
		case p, ok := <-ch:
			if !ok {
				return
			}
			_ = n.trySend(to, p)
		}
	}
}

// retireSender closes the outbound FIFO towards a departed peer so its
// goroutine exits once the queue drains, and removes it from the map so a
// later message to the same id (a rejoin under a recycled slot) gets a
// fresh sender. Runs on the event loop, like enqueue — the loop serializes
// the two, so close can never race a channel send.
func (n *Node) retireSender(to int) {
	n.sendMu.Lock()
	ch := n.senders[to]
	delete(n.senders, to)
	n.sendMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// FlushSends blocks until every outbound FIFO has handed its frames to the
// transport (or shed them), or the timeout elapses; it reports whether the
// queues drained. Call it after Run returns and before Transport.Close so
// a worker's final messages reach the broker instead of dying queued.
func (n *Node) FlushSends(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for n.sendPending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// Inspect runs fn on the node's event loop and waits for it to finish.
// Between events the hosted worker is quiescent — never mid-TrainStep,
// never mid-HandleMessage — and fn sees it with its last step joined, so
// fn may read (or snapshot) any worker state without racing the loop. fn
// must not block and must not call Inspect recursively (the loop would
// deadlock). It is only serviced while Run is executing; otherwise it fails
// once the node stops or ctx expires.
func (n *Node) Inspect(ctx context.Context, fn func(w *core.Worker)) error {
	ran := make(chan struct{})
	job := func() {
		n.worker.JoinStep()
		fn(n.worker)
		close(ran)
	}
	select {
	case n.loop <- job:
	case <-n.done:
		return fmt.Errorf("realtime: node stopped")
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ran:
		return nil
	case <-n.done:
		// Run can exit between accepting the job and executing it; the
		// closed channel tells the two apart.
		select {
		case <-ran:
			return nil
		default:
			return fmt.Errorf("realtime: node stopped")
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Leave performs a graceful departure: the worker drains on the event
// loop (broadcasting its LEAVE tombstones and stopping training), then
// FlushSends waits for every queued frame — tombstones included — to reach
// the transport, so a clean leave drops zero in-flight messages. The node
// keeps servicing its loop afterwards (late arrivals are ignored by the
// stopped worker); cancel Run's context to shut it down fully.
func (n *Node) Leave(ctx context.Context, flushTimeout time.Duration) error {
	if err := n.Inspect(ctx, func(w *core.Worker) { w.Leave() }); err != nil {
		return err
	}
	if !n.FlushSends(flushTimeout) {
		return fmt.Errorf("realtime: leave: %d frames still queued after %v",
			n.sendPending.Load(), flushTimeout)
	}
	return nil
}

// CheckpointManifest snapshots the worker's model together with its lineage
// manifest: the content digest (per variable and combined), the iteration
// and membership epoch the snapshot was taken at, and the node's config
// fingerprint. A non-nil parent chains the manifest to the previous
// snapshot of this node (manifests chain by digest; pass nil for a root).
// The snapshot and every digest are computed in one Inspect closure, so the
// manifest can never commit to weights from a different event-loop moment
// than the checkpoint bytes.
func (n *Node) CheckpointManifest(ctx context.Context, parent *lineage.Manifest) (int64, []byte, *lineage.Manifest, error) {
	cfg := n.cfg.System.Fingerprint()
	precision := n.cfg.System.Quant.Precision.String()
	if n.cfg.System.Quant.Auto {
		precision = "auto"
	}
	var ckpt []byte
	man := &lineage.Manifest{
		Schema:     lineage.Schema,
		Worker:     n.cfg.ID,
		Job:        n.cfg.System.Job,
		Config:     cfg,
		ConfigHash: lineage.Fingerprint(cfg),
		Precision:  precision,
	}
	err := n.Inspect(ctx, func(w *core.Worker) {
		m := w.Model()
		ckpt = m.Checkpoint()
		man.Model = m.ModelName
		man.Digest, man.Vars = lineage.Digests(m)
		man.Iter = w.Iter()
		man.Epoch = w.Epoch()
	})
	if err != nil {
		return 0, nil, nil, err
	}
	man.Link(parent)
	if parent != nil && man.Iter <= parent.Iter {
		// No training progress since the parent snapshot: the chain cannot
		// advance (VerifyLink requires strictly increasing iterations), so
		// the caller should keep the parent manifest.
		man.Link(nil)
	}
	if err := man.Validate(); err != nil {
		return 0, nil, nil, err
	}
	return man.Iter, ckpt, man, nil
}

// NewNode builds a node and its worker. The model replica is built from
// cfg.Spec (same spec + seed on all nodes gives identical initial models).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("realtime: nil transport")
	}
	n := &Node{cfg: cfg, loop: make(chan func(), 1024), ws: tensor.NewWorkspace(),
		senders: map[int]chan []byte{}, done: make(chan struct{}),
		fifoDrops: cfg.Metrics.Counter("realtime.fifo_drops"),
		sendDepth: cfg.Metrics.Gauge("realtime.send_queue_depth")}
	w, err := core.New(cfg.ID, cfg.System, cfg.Spec.Build(), cfg.Shard, realEnv{n})
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		w.SetObs(cfg.Obs)
	}
	n.worker = w
	return n, nil
}

// Worker exposes the hosted worker (for metrics inspection after Run).
func (n *Node) Worker() *core.Worker { return n.worker }

// Run trains until ctx is done. It owns the event loop: the worker's
// Start, every timer, and every incoming message execute on this
// goroutine. On return the worker's last step is joined, so its model and
// loss are as final as the loop left them.
func (n *Node) Run(ctx context.Context) error {
	n.start = time.Now()
	defer close(n.done) // stop the per-peer senders; Run is one-shot
	defer n.worker.JoinStep()

	// receive pump: decode and forward into the loop
	recvErr := make(chan error, 1)
	go func() {
		for {
			payload, err := n.cfg.Transport.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			m, err := wire.Decode(payload)
			// Decode copies everything it keeps, so the pump — the frame's
			// owner since Recv — was its last reader.
			bufpool.Bytes.Put(payload)
			if err != nil {
				continue // corrupt frame: drop
			}
			fn := func() { n.worker.HandleMessage(m) }
			if m.Type == wire.TypeLeave {
				// The peer is gone: after the worker processes the
				// tombstone, retire its outbound FIFO. Per-link FIFO
				// ordering means nothing useful can follow a tombstone.
				fn = func() {
					n.worker.HandleMessage(m)
					n.retireSender(int(m.From))
				}
			}
			select {
			case n.loop <- fn:
			case <-ctx.Done():
				return
			}
		}
	}()

	n.runEvent(func() { n.worker.Start() })
	for {
		select {
		case fn := <-n.loop:
			n.runEvent(fn)
		case err := <-recvErr:
			if ctx.Err() != nil {
				return nil // shutdown race: context canceled first
			}
			return fmt.Errorf("realtime: transport: %w", err)
		case <-ctx.Done():
			return nil
		}
	}
}

func (n *Node) runEvent(fn func()) {
	n.evStart = time.Now()
	fn()
}
