package core

import (
	"fmt"

	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// Env abstracts everything outside a worker: the clock, the other workers,
// the network monitor, and the compute cost model. The simulation driver
// (internal/cluster) implements it over the discrete-event engine; a
// real-mode runtime implements it over wall time and the TCP broker.
type Env interface {
	// Now returns the current time in seconds.
	Now() float64
	// After schedules fn to run d seconds from now.
	After(d float64, fn func())
	// NumWorkers returns the cluster size n.
	NumWorkers() int
	// Send delivers m from worker `from` to worker `to`, charging the
	// network model for m's wire size. m's selections may alias the
	// sender's live gradient and are the worker's again when Send returns:
	// an Env that keeps m past the call makes each its own first
	// (grad.Selection.Own).
	Send(from, to int, m *wire.Message)
	// Bandwidth returns the currently available bandwidth (Mbps) of the
	// link from->to — the network resource monitor of Figure 10.
	Bandwidth(from, to int) float64
	// Step is the door every training step goes through: worker w's step
	// over batch samples. The Env calls run at most once, with an arena only
	// that call draws from: before Step returns (real mode, on the event
	// loop), on a step slot while the event loop goes on, or — when the step
	// completes past the simulator's horizon — only if something joins it
	// while the loop still runs. An Env may leave a step unrun only when
	// nothing can observe it any more. The worker joins the step (Join)
	// before anything but a peer gradient next touches it (DESIGN.md §2).
	// charged is what the iteration costs (PhaseCompute and the §3.3 link
	// budget read it), wait how long from now its completion is still due
	// (only After gets it): the cost model's duration for both in the sim,
	// which does not depend on what the step computes; the wall time the
	// event has run for, step included, and 0 over wall time.
	Step(w, batch int, run func(ws *tensor.Workspace)) (charged, wait float64)
	// Join is called when worker w joins the step Step last handed over,
	// before the worker waits for it. It reports whether the step ran: an
	// Env that held the step back runs it now, or drops it — returning
	// false — once nothing can observe it. Real mode returns true: its step
	// ran inline.
	Join(w int) (ran bool)
	// ProfileCompute measures iteration seconds at each batch size — the
	// LBS controller's capacity probe.
	ProfileCompute(w int, batches []int) (x, y []float64)
	// SendScale returns how many bytes cross the wire per byte of gradient
	// or weight payload (the simulator inflates scaled-down models to the
	// paper's 5 MB / 17 MB wire sizes; real mode returns 1). The
	// transmission speed assurance module divides its budget by this.
	SendScale() float64
}

// Stats counts a worker's activity: the one record of its counts, which
// Report renders as the report schema's (METRICS.md).
type Stats struct {
	Iters            int64
	SamplesProcessed int64
	MsgsSent         int64
	MsgsRecvd        int64
	BytesSent        int64
	GradValuesSent   int64
	GradMsgsSent     int64 // gradient messages (the renormalization gate's unit)
	DKTWeightsSent   int64
	DKTMerges        int64
	WelcomesSent     int64   // admission snapshots served as a sponsor
	DegradedIters    int64   // iterations completed below the quorum floor
	MsgsRejected     int64   // messages dropped for naming an id outside [0, NumWorkers)
	QuantBytesSaved  int64   // wire bytes avoided by reduced-precision gradients
	LivenessExpiries int64   // members the failure detector suspected
	SyncBlocks       int64   // times the sync strategy blocked the next iteration
	JoinLatency      float64 // seconds of the last admission handshake (0 for a founder)

	// MsgsSent, BytesSent and MsgsRecvd by message class (obs.MsgClass),
	// and the wire bytes of the messages received.
	SentMsgs, SentBytes, RecvMsgs, RecvBytes [obs.NumClasses]int64
}

// Worker is one DLion node. All methods must be invoked from the Env's
// event-loop goroutine; the worker performs real gradient computation but
// charges durations to the Env's clock. Only its training step may run
// elsewhere (Env.Step), and JoinStep waits for it.
type Worker struct {
	ID int

	cfg      Config
	env      Env
	model    *nn.Model
	shard    *data.Shard
	selector grad.Selector

	iter    int64
	lbs     int
	iterSec float64 // duration charged for the in-flight iteration
	gbs     *gbsController

	// The training step as a future (JoinStep). stepping is set from the
	// step's hand-over to Env.Step until its join; meanwhile the step reads
	// W and batchX/batchY and writes G, the layers' activations and
	// stepLoss, then signals stepDone — unless the Env drops it (Env.Join),
	// when it touches nothing. Peer gradients arriving meanwhile wait in
	// queued, in arrival order. runStep is the bound method value, made once
	// so a step allocates no closure.
	stepping bool
	stepDone chan struct{}
	runStep  func(ws *tensor.Workspace)
	batchX   *tensor.Tensor
	batchY   []int
	stepLoss float64
	queued   []*wire.Message

	// The peer table: everything kept about worker id (self included) is
	// peers[id]. Allocated once, in New, over the [0, NumWorkers) address
	// space; cohortRCP is currentLBS's scratch of the same capacity.
	peers     []peerState
	cohortRCP []float64

	lossWin     []float64
	lastDKTIter int64

	// Per-iteration selection cache (exchange.go). selInvariant is set when
	// the selector implements grad.LinkInvariant, selBatch when it is also a
	// multiBudget; selCache is the reused slot array, cleared at the end of
	// every exchange, and selBudgets and selOut are selBatch's reused
	// arguments.
	selInvariant bool
	selBatch     multiBudget
	selCache     []selCacheEntry
	selBudgets   []int
	selOut       [][]*grad.Selection
	fullDense    int // grad.DenseBytes of the model: Quant.Auto's reference

	epochSamples float64 // cumulative global samples (GBS summed per iter)
	trainSize    int

	waitingSync bool
	started     bool

	// Ordered-apply discipline (cfg.OrderedApply): peer gradients are held in
	// pendGrad[round][peer] (each round a slice over the peer table's index)
	// and applied only when their round completes locally, in peer-id order.
	// orderedFlushed is the last round whose peer gradients have all been
	// applied.
	pendGrad       map[int64][]*wire.Message
	orderedFlushed int64

	// Crash/restart lifecycle. A stopped worker ignores messages and its
	// pending timers; gen invalidates timers armed before the last Stop so
	// a resumed worker does not double-run its loops.
	stopped bool
	gen     int

	// Elastic membership (membership.go). The believed member set is the
	// table's member bits; members caches it in id order (self included)
	// and peerIDs is the same without self; epoch counts roster mutations;
	// memLog records them for the renormalization gates.
	state     MemberState
	members   []int
	peerIDs   []int
	epoch     int64
	memLog    []EpochChange
	joinStart float64 // when the admission handshake began
	joinWait  float64 // current HELLO retry backoff

	stats Stats

	// The phase clock (nil = disabled, the zero-overhead fast path). The
	// worker charges compute, apply, and recv-wait; the Env charges
	// serialize and send, where those durations are known.
	obs       *obs.WorkerObs
	waitStart float64 // when the current sync block began
}

// peerState is one row of the peer table. The zero value is a worker this
// one knows nothing about, which is what a departure resets the row to.
// Fields run from widest to narrowest so a row packs into 64 bytes.
type peerState struct {
	rcp       float64 // latest RCP report (0 = none yet)
	iter      int64   // highest gradient iteration received
	loss      float64 // latest loss report, valid while hasLoss
	lastHeard float64 // when a member was last heard from (or admitted)
	lastSent  float64 // when this worker last sent the peer anything

	// What the last gradient exchange sent on the link to this peer.
	selCount int   // gradient values
	budget   int   // byte budget
	slot     int32 // its selection-cache slot (exchange.go)

	member, hasLoss bool
	// suspected: the failure detector removed the peer from the roster
	// (watch); its next message re-admits it, a LEAVE forgets it.
	suspected bool
}

// New builds a worker. The model must be this worker's own replica; the
// shard its private partition of the training data.
func New(id int, cfg Config, model *nn.Model, shard *data.Shard, env Env) (*Worker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= env.NumWorkers() {
		return nil, fmt.Errorf("core: worker id %d outside [0,%d)", id, env.NumWorkers())
	}
	trainSize := shard.Dataset().Len()
	gcfg := cfg.Batch.GBS
	if gcfg.TrainSetSize == 0 {
		// Default the GBS controller's 1%/10% caps to the actual dataset;
		// experiments running scaled-down data may pin TrainSetSize to the
		// paper's full dataset size so the controller behaves as it would
		// at full scale.
		gcfg.TrainSetSize = trainSize
	}
	w := &Worker{
		ID: id, cfg: cfg, env: env, model: model, shard: shard,
		selector:  cfg.NewSelector(),
		lbs:       cfg.Batch.InitialLBS,
		peers:     make([]peerState, env.NumWorkers()),
		cohortRCP: make([]float64, 0, env.NumWorkers()),
		members:   make([]int, 0, env.NumWorkers()),
		pendGrad:  map[int64][]*wire.Message{},
		trainSize: trainSize,
		stepDone:  make(chan struct{}, 1),
	}
	w.runStep = w.trainStep
	_, w.selInvariant = w.selector.(grad.LinkInvariant)
	if w.selInvariant {
		w.selBatch, _ = w.selector.(multiBudget)
	}
	totals := make([]int, 0, len(model.Params()))
	for _, p := range model.Params() {
		totals = append(totals, p.G.Len())
	}
	w.fullDense = grad.DenseBytes(totals)
	if err := w.initMembership(); err != nil {
		return nil, err
	}
	// The initial GBS is n·InitialLBS over the founding roster (a joiner
	// starts at 1·InitialLBS and adopts the federation's GBS on WELCOME).
	w.gbs = newGBSController(gcfg, cfg.Batch.InitialLBS*w.clusterSize())
	return w, nil
}

// Accessors used by drivers, metrics collection and tests.

// Iter returns the number of completed iterations.
func (w *Worker) Iter() int64 { return w.iter }

// LBS returns the current local batch size.
func (w *Worker) LBS() int { return w.lbs }

// GBS returns the current global batch size as this worker computes it.
func (w *Worker) GBS() int { return w.gbs.GBSAt(w.env.Now(), w.epochsDone()) }

// Model returns the worker's model replica. A driver reading or writing it
// between the worker's own events calls JoinStep first; one that only reads
// the weights may use CopyJoinedWeights instead, which leaves the step in
// flight alone.
func (w *Worker) Model() *nn.Model { return w.model }

// CopyJoinedWeights copies the worker's weights into dst (same spec) as
// JoinStep would leave them: W, then the peer gradients queued behind the
// step in flight applied to the copy in arrival order, with the apply's
// own arithmetic. It reads the worker and writes only dst, so it may run
// on any goroutine while the event loop waits, beside the step in flight
// (which reads W too).
func (w *Worker) CopyJoinedWeights(dst *nn.Model) error {
	if err := dst.CopyWeightsFrom(w.model); err != nil {
		return err
	}
	for _, m := range w.queued {
		w.applyRemoteGradient(dst, m)
	}
	return nil
}

// QueuedGradients returns how many peer gradients wait behind the step in
// flight: while it is 0, CopyJoinedWeights copies W as it is.
func (w *Worker) QueuedGradients() int { return len(w.queued) }

// Stats returns a copy of the activity counters.
func (w *Worker) Stats() Stats { return w.stats }

// SetObs attaches a phase clock. Call before Start; a nil clock (the
// default) keeps every phase charge a no-op.
func (w *Worker) SetObs(o *obs.WorkerObs) { w.obs = o }

// Report renders the worker as the report schema's per-worker record
// (METRICS.md): its counts from Stats, its roster, job label and iteration,
// and the attached clock's phases (0 without one).
func (w *Worker) Report() obs.WorkerReport {
	s := &w.stats
	r := obs.WorkerReport{ID: w.ID, Iters: w.iter, Job: w.cfg.Job,
		Phases:    make(map[string]float64, obs.NumPhases),
		SentBytes: make(map[string]int64, obs.NumClasses),
		SentMsgs:  make(map[string]int64, obs.NumClasses),
		RecvBytes: make(map[string]int64, obs.NumClasses),
		RecvMsgs:  make(map[string]int64, obs.NumClasses),

		LivenessExpiries: s.LivenessExpiries,
		SyncBlocks:       s.SyncBlocks,
		MsgsRejected:     s.MsgsRejected,
		QuantBytesSaved:  s.QuantBytesSaved,
		RosterSize:       int64(len(w.members)),
		Epoch:            w.epoch,
		DegradedIters:    s.DegradedIters,
		JoinLatencyS:     s.JoinLatency,
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		r.Phases[p.String()] = w.obs.PhaseSeconds(p)
	}
	for c := obs.MsgClass(0); c < obs.NumClasses; c++ {
		r.SentBytes[c.String()] = s.SentBytes[c]
		r.SentMsgs[c.String()] = s.SentMsgs[c]
		r.RecvBytes[c.String()] = s.RecvBytes[c]
		r.RecvMsgs[c.String()] = s.RecvMsgs[c]
	}
	return r
}

// classOf buckets a message type for per-class byte accounting.
func classOf(t wire.MsgType) obs.MsgClass {
	switch t {
	case wire.TypeGradient:
		return obs.ClassGradient
	case wire.TypeWeights:
		return obs.ClassWeights
	default:
		return obs.ClassControl
	}
}

// LastSelectedCount returns the number of gradient values sent to peer on
// the most recent iteration (Figures 8 and 20).
func (w *Worker) LastSelectedCount(peer int) int { return w.peers[peer].selCount }

// LastBudget returns the most recent per-link byte budget for peer.
func (w *Worker) LastBudget(peer int) int { return w.peers[peer].budget }

// AvgRecentLoss returns the mean of the recent-loss window (+Inf before
// any iteration completes, so fresh workers never win best-worker
// elections). A step's loss joins the window when the step is joined.
func (w *Worker) AvgRecentLoss() float64 {
	if len(w.lossWin) == 0 {
		return inf
	}
	var s float64
	for _, v := range w.lossWin {
		s += v
	}
	return s / float64(len(w.lossWin))
}

const inf = 1e308

func (w *Worker) epochsDone() float64 {
	return w.epochSamples / float64(w.trainSize)
}

// Start begins a founder's training: the initial capacity profile, the
// periodic re-profiling loop, and the first iteration. A worker configured
// with Membership.Join runs the admission handshake first and starts
// training only once admitted (or once it falls back to solo mode).
func (w *Worker) Start() {
	if w.cfg.Membership.Join {
		w.StartJoin(w.cfg.Membership.Sponsor)
		return
	}
	if w.started {
		panic("core: worker started twice")
	}
	w.started = true
	w.logMembership("seed")
	w.startTraining()
}

// startTraining arms the failure detector, the profiling loop and the first
// iteration — shared by founder start, join admission and solo fallback.
// Every member counts as heard from at this point: the detector's grace.
func (w *Worker) startTraining() {
	if w.cfg.LivenessTimeout > 0 {
		for _, p := range w.peerIDs {
			w.peers[p].lastHeard = w.env.Now()
		}
		w.watch()
	}
	if w.cfg.Batch.DynamicBatching {
		w.profileAndBroadcast()
		w.after(w.cfg.Batch.ProfilePeriod, w.profileLoop)
	}
	w.startIteration()
}

// Stop kills the worker, as if its process died: pending timers become
// no-ops and incoming messages are ignored until Resume. The step in
// flight is joined first, so a stopped worker has none.
func (w *Worker) Stop() {
	w.JoinStep()
	w.stopped = true
	w.gen++
	w.waitingSync = false
}

// Stopped reports whether the worker is currently stopped (crashed).
func (w *Worker) Stopped() bool { return w.stopped }

// Resume restarts a stopped worker after the harness restored its model
// (e.g. from a checkpoint), as a new process would: it knows nothing about
// its peers and re-enters through sponsor with StartJoin's admission
// handshake — retries, solo fallback, and on WELCOME the sponsor's roster,
// iteration, GBS and weights. The restored model is what a solo fallback
// trains on. A sponsor outside the other ids (nobody to ask) makes that
// fallback immediate.
func (w *Worker) Resume(sponsor int) {
	if !w.stopped {
		return
	}
	w.stopped = false
	w.lossWin = nil
	w.beginJoin(sponsor, "restart")
}

// after schedules fn like env.After, but arms it to the current lifecycle
// generation: if the worker crashes before the timer fires, the callback is
// a no-op (the process that armed it is gone). Every timer joins the step
// in flight before fn runs.
func (w *Worker) after(d float64, fn func()) {
	gen := w.gen
	w.env.After(d, func() {
		if w.stopped || w.gen != gen {
			return
		}
		w.JoinStep()
		fn()
	})
}

func (w *Worker) profileLoop() {
	w.profileAndBroadcast()
	w.after(w.cfg.Batch.ProfilePeriod, w.profileLoop)
}

// profileAndBroadcast runs the LBS controller's capacity probe and shares
// the resulting RCP with all peers (§3.2).
func (w *Worker) profileAndBroadcast() {
	x, y := w.env.ProfileCompute(w.ID, profileBatches(w.cfg.Batch.InitialLBS))
	r := computeRCP(x, y)
	w.peers[w.ID].rcp = r
	for _, p := range w.peerIDs {
		w.send(&wire.Message{Type: wire.TypeRCPReport, From: int32(w.ID), To: int32(p),
			Iter: w.iter, RCP: r})
	}
}

func (w *Worker) send(m *wire.Message) {
	wb, c := int64(m.WireBytes()), classOf(m.Type)
	w.stats.MsgsSent++
	w.stats.BytesSent += wb
	w.stats.SentMsgs[c]++
	w.stats.SentBytes[c] += wb
	w.peers[m.To].lastSent = w.env.Now()
	w.env.Send(w.ID, int(m.To), m)
}

// currentLBS applies the GBS and LBS controllers (Eq. 5) to decide this
// worker's batch for the next iteration. Shares are computed over the
// roster, so the global batch is redistributed — not silently shrunk —
// when members leave or are suspected.
func (w *Worker) currentLBS() int {
	gbs := w.gbs.GBSAt(w.env.Now(), w.epochsDone())
	if !w.cfg.Batch.DynamicBatching {
		l := gbs / w.clusterSize()
		if l < 1 {
			l = 1
		}
		return l
	}
	// Gather the roster's RCP reports in id order so lbsShares splits GBS
	// among them only.
	me := 0
	rcp := w.cohortRCP[:0]
	for _, id := range w.members {
		if id == w.ID {
			me = len(rcp)
		}
		rcp = append(rcp, w.peers[id].rcp)
	}
	return lbsShares(gbs, rcp, minLBS)[me]
}

// startIteration draws a batch, hands the step that computes gradients
// against the current weights to the Env, and schedules completion for when
// the Env says it is due — through After even at wait 0, so messages that
// arrived during the step go first. Gradients live in the model's G buffers
// until completeIteration. Remote updates arriving before the step is joined
// queue behind it and are applied, in arrival order, at the join: the step
// reads the weight snapshot it started from, as a real worker's backward
// pass does, and every weight sees the same float operations in the same
// order as if the step had run inline and the updates had landed on
// arrival.
func (w *Worker) startIteration() {
	if w.cfg.MaxIters > 0 && w.iter >= w.cfg.MaxIters {
		return // iteration budget exhausted; keep servicing messages only
	}
	w.JoinStep()
	w.lbs = w.currentLBS()
	w.batchX, w.batchY = w.shard.NextBatch(w.lbs)
	w.stepping = true
	var wait float64
	w.iterSec, wait = w.env.Step(w.ID, w.lbs, w.runStep)
	w.after(wait, w.completeIteration)
}

// trainStep is the step Env.Step runs, possibly on another goroutine: it
// touches only what the Worker comment assigns to it, then signals the join.
func (w *Worker) trainStep(ws *tensor.Workspace) {
	w.stepLoss, _ = w.model.TrainStepOn(ws, w.batchX, w.batchY)
	w.stepDone <- struct{}{}
}

// JoinStep waits for the training step in flight, if any, and folds it in:
// its loss joins the window, then the peer gradients queued behind it are
// applied in arrival order. A step the Env dropped (Env.Join) leaves no
// loss and G as the last step that ran left it; the queued gradients land
// all the same. Timers, every message but a peer gradient's unordered
// apply, Stop, Leave, StartJoin and the next step call it first; a driver
// calls it before it writes the model between the worker's events, or
// reads anything but the weights (checkpoints, the end of a run).
func (w *Worker) JoinStep() {
	if !w.stepping {
		return
	}
	w.stepping = false
	if w.env.Join(w.ID) {
		<-w.stepDone
		w.pushLoss(w.stepLoss)
	}
	w.batchX, w.batchY = nil, nil
	for i, m := range w.queued {
		w.timedApply(func() { w.applyRemoteGradient(w.model, m) })
		m.Release()
		w.queued[i] = nil
	}
	w.queued = w.queued[:0]
}

// lossWindow is l, the number of recent losses a DKT loss report averages
// (§3.4).
const lossWindow = 5

func (w *Worker) pushLoss(l float64) {
	w.lossWin = append(w.lossWin, l)
	if len(w.lossWin) > lossWindow {
		w.lossWin = w.lossWin[1:]
	}
}

// completeIteration joins the step, applies the local update on top of the
// peer gradients that arrived during it, exchanges partial gradients, runs
// DKT bookkeeping, and advances (or blocks on) the sync strategy.
func (w *Worker) completeIteration() {
	w.JoinStep()
	w.iter++
	w.stats.Iters++
	w.stats.SamplesProcessed += int64(w.lbs)
	w.obs.AddPhase(obs.PhaseCompute, w.iterSec)
	w.epochSamples += float64(w.gbs.GBSAt(w.env.Now(), w.epochsDone()))

	// Local model update: own gradient with db = 1 (Eq. 7, j = k), averaged
	// over the current roster size so departures renormalize the divisor.
	n := float64(w.clusterSize())
	w.model.ApplySGD(w.cfg.LearningRate / n)

	if w.Degraded() {
		w.stats.DegradedIters++
	}

	w.exchangeGradients()
	if w.cfg.OrderedApply {
		// The round this worker just completed may already have every peer's
		// gradient buffered; apply them now, before sync evaluation, so the
		// next iteration's backward pass sees them.
		w.flushOrdered()
	}
	if la := w.cfg.Membership.LeaveAfterIters; la > 0 && w.iter >= la {
		// Deterministic graceful departure: the final gradients above drain
		// ahead of the tombstones on the same FIFO links.
		w.Leave()
		return
	}
	w.maybeDKT()
	w.maybeStartNext()
}

// maybeStartNext starts the next iteration if the synchronization strategy
// allows, otherwise blocks until a qualifying gradient arrives or the
// roster changes (recheckSync) — a crashed peer sends no unblocking
// gradient, so with the failure detector on its suspicion ends the block.
func (w *Worker) maybeStartNext() {
	if w.canProceed() {
		w.waitingSync = false
		w.startIteration()
		return
	}
	w.waitingSync = true
	w.waitStart = w.env.Now()
	w.stats.SyncBlocks++
}

// recheckSync ends a sync wait once the strategy allows — a qualifying
// gradient arrived, or the roster changed under the blocked worker —
// charging the blocked interval to the recv-wait phase.
func (w *Worker) recheckSync() {
	if w.waitingSync && w.canProceed() {
		w.waitingSync = false
		w.obs.AddPhase(obs.PhaseRecvWait, w.env.Now()-w.waitStart)
		w.startIteration()
	}
}

// canProceed implements the synch_training strategies (§4.2) over the
// roster: a departed or suspected peer is out of it, so its missing
// gradients neither block progress nor count toward staleness. Below the
// quorum floor the strategies are bypassed entirely — the worker trains
// on, marking iterations degraded instead of blocking.
func (w *Worker) canProceed() bool {
	if w.Degraded() {
		return true
	}
	switch w.cfg.Sync.Mode {
	case SyncAsync:
		return true
	case SyncFull:
		for _, p := range w.peerIDs {
			if w.peers[p].iter < w.iter {
				return false
			}
		}
		return true
	case SyncBounded:
		if len(w.peerIDs) == 0 {
			return true
		}
		arrived := 0
		minIter := int64(1 << 62)
		for _, p := range w.peerIDs {
			if w.peers[p].iter >= w.iter {
				arrived++
			}
			if w.peers[p].iter < minIter {
				minIter = w.peers[p].iter
			}
		}
		need := len(w.peerIDs) - w.cfg.Sync.BackupWorkers
		if arrived < need {
			return false
		}
		return w.iter-minIter <= int64(w.cfg.Sync.Staleness)
	}
	return true
}

// HandleMessage processes one incoming message. It must be called from the
// Env's event-loop goroutine. A stopped (crashed) worker ignores traffic.
func (w *Worker) HandleMessage(m *wire.Message) {
	if w.stopped {
		return
	}
	// Worker ids index the peer table, so a sender — or a WELCOME roster
	// entry — outside the address space is refused before it touches state.
	from := int(m.From)
	valid := from >= 0 && from < len(w.peers)
	for _, id := range m.Members {
		valid = valid && id >= 0 && int(id) < len(w.peers)
	}
	if !valid {
		w.stats.MsgsRejected++
		m.Release()
		return
	}
	c := classOf(m.Type)
	w.stats.MsgsRecvd++
	w.stats.RecvMsgs[c]++
	w.stats.RecvBytes[c] += int64(m.WireBytes())
	peer := &w.peers[from]
	peer.lastHeard = w.env.Now()
	// Writes to W queue behind the step in flight; everything else joins it.
	// An unordered peer gradient is the one write that commutes with the
	// step: in sequential order the step read W before it arrived. The
	// roster and LBS its apply scales by change only on paths that join.
	if m.Type != wire.TypeGradient || w.cfg.OrderedApply || peer.suspected {
		w.JoinStep()
	}
	if peer.suspected && m.Type != wire.TypeLeave {
		// It was only unreachable. A HELLO tells it how far this worker ran
		// meanwhile: rounds it will get no gradient of.
		w.admit(from, m.Iter)
		w.sendHello(from, false)
	}
	switch m.Type {
	case wire.TypeGradient:
		if w.state == StateJoining || w.state == StateSyncing {
			// Not admitted yet: the WELCOME snapshot will supersede the
			// local weights, and the roster-of-one divisor would overweight
			// the update.
			m.Release()
			return
		}
		if m.Iter > peer.iter {
			peer.iter = m.Iter
		}
		switch {
		case w.cfg.OrderedApply:
			w.bufferOrdered(m)
			w.flushOrdered()
		case w.stepping:
			w.queued = append(w.queued, m)
		default:
			w.timedApply(func() { w.applyRemoteGradient(w.model, m) })
			m.Release()
		}
		w.recheckSync()
	case wire.TypeHello:
		w.handleHello(m)
	case wire.TypeWelcome:
		w.handleWelcome(m)
	case wire.TypeLeave:
		w.handleLeave(m)
	case wire.TypeRCPReport:
		peer.rcp = m.RCP
	case wire.TypeLossReport:
		peer.loss, peer.hasLoss = m.Loss, true
	case wire.TypeDKTRequest:
		w.sendWeights(from)
	case wire.TypeWeights:
		w.timedApply(func() {
			if err := w.model.MergeWeights(m.Weights, w.cfg.DKT.Lambda); err == nil {
				w.stats.DKTMerges++
			}
		})
	}
}

// bufferOrdered stores a peer gradient for ordered application. Duplicates
// of already-flushed rounds (a FIFO link never produces them, but the codec
// does not forbid them) are dropped rather than double-applied.
func (w *Worker) bufferOrdered(m *wire.Message) {
	r := m.Iter
	if r <= w.orderedFlushed {
		m.Release()
		return
	}
	byPeer := w.pendGrad[r]
	if byPeer == nil {
		byPeer = make([]*wire.Message, len(w.peers))
		w.pendGrad[r] = byPeer
	}
	byPeer[int(m.From)].Release() // a duplicate supersedes the buffered copy
	byPeer[int(m.From)] = m
}

// flushOrdered applies every completed round of buffered peer gradients in
// ascending (round, peer-id) order. A round is complete once this worker has
// finished its own iteration for it (w.iter >= round — the local update for
// round r lands in completeIteration, before peers' r-gradients) and every
// roster peer's gradient has arrived. This makes the total float32 apply
// order — own r, peers' r in id order, own r+1, ... — identical on the
// simulator and the realtime broker, which is what the lineage audit's
// bit-exact replay relies on.
func (w *Worker) flushOrdered() {
	for r := w.orderedFlushed + 1; r <= w.iter; r++ {
		byPeer := w.pendGrad[r]
		for _, p := range w.peerIDs {
			if byPeer == nil || byPeer[p] == nil {
				return
			}
		}
		for _, p := range w.peerIDs {
			m := byPeer[p]
			w.timedApply(func() { w.applyRemoteGradient(w.model, m) })
			m.Release()
		}
		delete(w.pendGrad, r)
		w.orderedFlushed = r
	}
}

// timedApply runs fn, charging its duration to the apply phase. The clock
// is the Env's, so real mode records wall time while the simulator —
// whose clock does not advance inside an event — records the phase as
// free, consistent with its cost model (see METRICS.md).
func (w *Worker) timedApply(fn func()) {
	if w.obs == nil {
		fn()
		return
	}
	t0 := w.env.Now()
	fn()
	w.obs.AddPhase(obs.PhaseApply, w.env.Now()-t0)
}
