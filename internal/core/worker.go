package core

import (
	"fmt"

	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/obs"
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
	// IterSeconds is asked right after worker w's TrainStep over batch
	// samples returns: charged is what that iteration costs (PhaseCompute and
	// the §3.3 link budget read it), wait how long from now its completion is
	// still due (only After gets it): charged in the sim, 0 over wall time.
	IterSeconds(w, batch int) (charged, wait float64)
	// ProfileCompute measures iteration seconds at each batch size — the
	// LBS controller's capacity probe.
	ProfileCompute(w int, batches []int) (x, y []float64)
	// SendScale returns how many bytes cross the wire per byte of gradient
	// or weight payload (the simulator inflates scaled-down models to the
	// paper's 5 MB / 17 MB wire sizes; real mode returns 1). The
	// transmission speed assurance module divides its budget by this.
	SendScale() float64
}

// Stats counts a worker's activity.
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
	WelcomesSent     int64 // admission snapshots served as a sponsor
	DegradedIters    int64 // iterations completed below the quorum floor
	MsgsRejected     int64 // messages dropped for naming an id outside [0, NumWorkers)
	QuantBytesSaved  int64 // wire bytes avoided by reduced-precision gradients
}

// Worker is one DLion node. All methods must be invoked from the Env's
// event-loop goroutine; the worker performs real gradient computation but
// charges durations to the Env's clock.
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

	// The peer table: everything kept about worker id (self included) is
	// peers[id]. Allocated once, in New, over the [0, NumWorkers) address
	// space; cohortRCP is currentLBS's scratch of the same capacity.
	peers     []peerState
	cohortRCP []float64

	lossWin     []float64
	lastDKTIter int64

	// Per-iteration selection cache (exchange.go). selInvariant is set when
	// the selector implements grad.LinkInvariant; selCache is the reused
	// slot array, cleared at the end of every exchange.
	selInvariant bool
	selCache     []selCacheEntry
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
	stopped      bool
	gen          int
	aliveFrom    float64 // when this worker (re)started; liveness grace origin
	rejoining    bool    // next weights message is a rejoin snapshot: adopt fully
	recheckArmed bool    // a sync-liveness recheck timer is pending

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

	// Observability (nil = disabled, the zero-overhead fast path). The
	// worker charges compute, apply, and recv-wait; the Env charges
	// serialize and send, where those durations are known.
	obs       *obs.WorkerObs
	waitStart float64 // when the current sync block began
}

// peerState is one row of the peer table. The zero value is a worker this
// one knows nothing about, which is what a departure resets the row to.
// Fields run from widest to narrowest so a row packs into 56 bytes.
type peerState struct {
	rcp       float64 // latest RCP report (0 = none yet)
	iter      int64   // highest gradient iteration received
	loss      float64 // latest loss report, valid while hasLoss
	lastHeard float64 // when the peer was last heard from, valid while heard

	// What the last gradient exchange sent on the link to this peer.
	selCount int            // gradient values
	budget   int            // byte budget
	prec     grad.Precision // wire precision (§3.3's precision half)

	// quant is the accept mask the peer advertised in HELLO/WELCOME; 0 (a
	// static founder never handshakes) reads as accept-all.
	quant grad.PrecMask

	member, hasLoss, heard bool
	deadSeen               bool // already counted as liveness-expired
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
	}
	_, w.selInvariant = w.selector.(grad.LinkInvariant)
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

// Model returns the worker's model replica.
func (w *Worker) Model() *nn.Model { return w.model }

// Stats returns a copy of the activity counters.
func (w *Worker) Stats() Stats { return w.stats }

// SetObs attaches an observability sink. Call before Start; a nil sink
// (the default) keeps every instrumentation point a no-op.
func (w *Worker) SetObs(o *obs.WorkerObs) { w.obs = o }

// Obs returns the attached observability sink (nil when disabled).
func (w *Worker) Obs() *obs.WorkerObs { return w.obs }

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

// LastPrecision returns the wire precision chosen for the link to peer on
// the most recent gradient exchange (PrecF32 before any exchange).
func (w *Worker) LastPrecision(peer int) grad.Precision { return w.peers[peer].prec }

// PeerAcceptMask returns the reduced-precision accept mask peer advertised
// during membership negotiation; peers that never handshook (static
// founders) default to accept-all.
func (w *Worker) PeerAcceptMask(peer int) grad.PrecMask {
	if m := w.peers[peer].quant; m != 0 {
		return m
	}
	return grad.MaskAll
}

// AvgRecentLoss returns the mean of the recent-loss window (+Inf before
// any iteration completes, so fresh workers never win best-worker
// elections).
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
	w.aliveFrom = w.env.Now()
	w.logMembership("seed")
	w.startTraining()
}

// startTraining arms the profiling loop and the first iteration — shared by
// founder start, join admission, solo fallback, and Resume.
func (w *Worker) startTraining() {
	if w.cfg.Batch.DynamicBatching {
		w.profileAndBroadcast()
		w.after(w.cfg.Batch.ProfilePeriod, w.profileLoop)
	}
	w.startIteration()
}

// Stop kills the worker, as if its process died: pending timers become
// no-ops and incoming messages are ignored until Resume. The armed-recheck
// flag resets too — the gen bump already voided the pending timer, and a
// stale flag would stop the resumed worker from ever re-arming it.
func (w *Worker) Stop() {
	w.stopped = true
	w.gen++
	w.waitingSync = false
	w.recheckArmed = false
}

// Stopped reports whether the worker is currently stopped (crashed).
func (w *Worker) Stopped() bool { return w.stopped }

// Resume restarts a stopped worker after the harness restored its model
// (e.g. from a checkpoint). syncPeer >= 0 is the rejoin path: the worker
// requests a fresh weight snapshot from that peer and adopts it outright,
// re-syncing state that a possibly-stale checkpoint cannot provide.
// Cross-worker soft state (loss window, liveness clocks) restarts from
// scratch, as it would in a new process.
func (w *Worker) Resume(syncPeer int) {
	if !w.stopped {
		return
	}
	w.stopped = false
	w.aliveFrom = w.env.Now()
	w.lossWin = nil
	for i := range w.peers {
		p := &w.peers[i]
		p.heard, p.hasLoss, p.deadSeen = false, false, false
	}
	w.waitingSync = false
	if syncPeer >= 0 && syncPeer != w.ID {
		w.rejoining = true
		w.send(&wire.Message{Type: wire.TypeDKTRequest, From: int32(w.ID),
			To: int32(syncPeer), Iter: w.iter})
	}
	w.startTraining()
}

// after schedules fn like env.After, but arms it to the current lifecycle
// generation: if the worker crashes before the timer fires, the callback is
// a no-op (the process that armed it is gone).
func (w *Worker) after(d float64, fn func()) {
	gen := w.gen
	w.env.After(d, func() {
		if w.stopped || w.gen != gen {
			return
		}
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
	for _, p := range w.livePeers() {
		w.send(&wire.Message{Type: wire.TypeRCPReport, From: int32(w.ID), To: int32(p),
			Iter: w.iter, RCP: r})
	}
}

// peerLive reports whether peer p is considered alive: heard from within
// LivenessTimeout, or within the grace period after this worker started.
// With LivenessTimeout <= 0 every peer is always live (the fault-free
// assumption the pre-resilience code made).
func (w *Worker) peerLive(p int) bool {
	if w.cfg.LivenessTimeout <= 0 {
		return true
	}
	last := w.aliveFrom
	if w.peers[p].heard {
		last = w.peers[p].lastHeard
	}
	return w.env.Now()-last <= w.cfg.LivenessTimeout
}

// livePeers returns the peers currently considered alive, in id order.
// Read-only like peerIDs, which it returns as is when liveness is off.
func (w *Worker) livePeers() []int {
	if w.cfg.LivenessTimeout <= 0 {
		return w.peerIDs
	}
	live := make([]int, 0, len(w.peerIDs))
	for _, p := range w.peerIDs {
		if w.peerLive(p) {
			live = append(live, p)
		} else if w.obs != nil && !w.peers[p].deadSeen {
			// first observation of this peer's liveness expiry
			w.peers[p].deadSeen = true
			w.obs.IncLivenessExpiry()
		}
	}
	return live
}

// LivePeers exposes the live peer set (drivers and tests), as a copy the
// caller owns.
func (w *Worker) LivePeers() []int { return append([]int(nil), w.livePeers()...) }

func (w *Worker) send(m *wire.Message) {
	wb := m.WireBytes()
	w.stats.MsgsSent++
	w.stats.BytesSent += int64(wb)
	w.obs.AddSent(classOf(m.Type), wb)
	w.env.Send(w.ID, int(m.To), m)
}

// currentLBS applies the GBS and LBS controllers (Eq. 5) to decide this
// worker's batch for the next iteration. Shares are computed over the live
// worker set, so the global batch is redistributed — not silently shrunk —
// when peers die: dead workers' RCP entries stop diluting the split.
func (w *Worker) currentLBS() int {
	gbs := w.gbs.GBSAt(w.env.Now(), w.epochsDone())
	if !w.cfg.Batch.DynamicBatching {
		l := gbs / w.clusterSize()
		if l < 1 {
			l = 1
		}
		return l
	}
	// Gather the live cohort's RCP reports (self + live roster peers) in id
	// order so lbsShares splits GBS among them only.
	me := 0
	rcp := w.cohortRCP[:0]
	for _, id := range w.members {
		if id == w.ID {
			me = len(rcp)
		} else if !w.peerLive(id) {
			continue
		}
		rcp = append(rcp, w.peers[id].rcp)
	}
	return lbsShares(gbs, rcp, w.cfg.Batch.MinLBS)[me]
}

// startIteration draws a batch, computes gradients against the current
// weights, and schedules completion for when the Env says it is due — through
// After even at wait 0, so messages that arrived during the step go first.
// Gradients live in the model's G buffers until completeIteration; remote
// updates arriving meanwhile modify W only, mirroring a real worker whose
// backward pass uses the weight snapshot it started from.
func (w *Worker) startIteration() {
	if w.cfg.MaxIters > 0 && w.iter >= w.cfg.MaxIters {
		return // iteration budget exhausted; keep servicing messages only
	}
	w.lbs = w.currentLBS()
	x, y := w.shard.NextBatch(w.lbs)
	loss, _ := w.model.TrainStep(x, y)
	w.pushLoss(loss)
	var wait float64
	w.iterSec, wait = w.env.IterSeconds(w.ID, w.lbs)
	w.after(wait, w.completeIteration)
}

func (w *Worker) pushLoss(l float64) {
	w.lossWin = append(w.lossWin, l)
	if len(w.lossWin) > w.cfg.DKT.LossWindow {
		w.lossWin = w.lossWin[1:]
	}
}

// completeIteration applies the local update, exchanges partial gradients,
// runs DKT bookkeeping, and advances (or blocks on) the sync strategy.
func (w *Worker) completeIteration() {
	w.iter++
	w.stats.Iters++
	w.stats.SamplesProcessed += int64(w.lbs)
	w.obs.AddPhase(obs.PhaseCompute, w.iterSec)
	w.epochSamples += float64(w.gbs.GBSAt(w.env.Now(), w.epochsDone()))

	// Local model update: own gradient with db = 1 (Eq. 7, j = k), averaged
	// over the current roster size so departures renormalize the divisor.
	n := float64(w.clusterSize())
	w.model.ApplySGD(w.cfg.LearningRate / n)

	if w.degradedNow() {
		w.stats.DegradedIters++
		w.obs.IncDegradedIter()
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
// allows, otherwise blocks until a qualifying gradient arrives — or, with
// liveness tracking on, until the blocking peer is declared dead (a dead
// peer sends no unblocking gradient, so a timer must re-evaluate).
func (w *Worker) maybeStartNext() {
	if w.canProceed() {
		w.waitingSync = false
		w.startIteration()
		return
	}
	w.waitingSync = true
	w.waitStart = w.env.Now()
	w.obs.IncSyncBlock()
	w.armSyncRecheck()
}

// recheckSync ends a sync wait once the strategy allows — a qualifying
// gradient arrived, or the roster or live set changed under the blocked
// worker — charging the blocked interval to the recv-wait phase.
func (w *Worker) recheckSync() {
	if w.waitingSync && w.canProceed() {
		w.waitingSync = false
		w.obs.AddPhase(obs.PhaseRecvWait, w.env.Now()-w.waitStart)
		w.startIteration()
	}
}

func (w *Worker) armSyncRecheck() {
	if w.cfg.LivenessTimeout <= 0 || w.recheckArmed {
		return
	}
	w.recheckArmed = true
	w.after(w.cfg.LivenessTimeout, func() {
		w.recheckArmed = false
		w.recheckSync()
		if w.waitingSync {
			w.armSyncRecheck()
		}
	})
}

// canProceed implements the synch_training strategies (§4.2). Only live
// roster peers participate: a sync or bounded strategy that kept waiting
// for a crashed or departed peer would deadlock the whole cluster, so
// their missing gradients neither block progress nor count toward
// staleness. Below the quorum floor the strategies are bypassed entirely —
// the worker trains on, marking iterations degraded instead of blocking.
func (w *Worker) canProceed() bool {
	if w.degradedNow() {
		return true
	}
	switch w.cfg.Sync.Mode {
	case SyncAsync:
		return true
	case SyncFull:
		for _, p := range w.livePeers() {
			if w.peers[p].iter < w.iter {
				return false
			}
		}
		return true
	case SyncBounded:
		live := w.livePeers()
		if len(live) == 0 {
			return true
		}
		arrived := 0
		minIter := int64(1 << 62)
		for _, p := range live {
			if w.peers[p].iter >= w.iter {
				arrived++
			}
			if w.peers[p].iter < minIter {
				minIter = w.peers[p].iter
			}
		}
		need := len(live) - w.cfg.Sync.BackupWorkers
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
		w.obs.IncMsgRejected()
		m.Release()
		return
	}
	w.stats.MsgsRecvd++
	peer := &w.peers[from]
	peer.lastHeard, peer.heard = w.env.Now(), true
	peer.deadSeen = false // demonstrably alive again
	if w.obs != nil {
		w.obs.AddRecv(classOf(m.Type), m.WireBytes())
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
		if w.cfg.OrderedApply {
			w.bufferOrdered(m)
			w.flushOrdered()
		} else {
			w.timedApply(func() { w.applyRemoteGradient(m) })
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
		if w.rejoining {
			// Rejoin snapshot: adopt the live peer's weights outright — a
			// λ-merge with a stale checkpoint would keep half the staleness.
			if err := w.model.SetWeights(m.Weights); err == nil {
				w.rejoining = false
				w.stats.DKTMerges++
			}
			return
		}
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
			w.timedApply(func() { w.applyRemoteGradient(m) })
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
