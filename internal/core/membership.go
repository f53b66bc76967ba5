package core

import (
	"fmt"

	"dlion/internal/grad"
	"dlion/internal/wire"
)

// This file is the elastic membership subsystem: the per-worker roster +
// epoch state machine that lets workers join and leave a running federation
// without restarting it (ROADMAP: "workers joining/leaving mid-training").
//
// Every worker keeps a roster — the set of worker ids it believes are
// members, held as the member bits of its peer table (worker.go), whose
// index is the worker id: ids from outside are checked against
// [0, NumWorkers) first — and an epoch counter that increments on every
// roster mutation.
// All renormalization-sensitive paths (GBS divisor, LBS shares, gradient
// fan-out, sync strategies, DKT electorates) derive their cluster size from
// the roster, so admission and departure renormalize them immediately. The
// default roster is 0..NumWorkers-1, which preserves the behavior (and the
// golden timelines) of every pre-elastic configuration bit-for-bit.
//
// Join: HELLO(needSync) → sponsor replies WELCOME carrying its roster,
// epoch, GBS, iteration, and a full weight snapshot → joiner adopts all of
// it, then announces itself with plain HELLOs to the remaining members.
// Per-link FIFO ordering (the simulator's egress serialization, the
// realtime broker's per-peer senders) guarantees a member sees the joiner's
// HELLO before any of its gradients.
//
// Leave: the final gradient exchange drains first, then a LEAVE tombstone
// goes to every peer on the same FIFO links, so peers apply the leaver's
// last gradients before removing it. Receivers renormalize in the same
// event that removes the tombstoned member.

// MemberState is a worker's position in the membership lifecycle.
type MemberState int

// Membership states. The zero value is StateActive so statically
// configured workers (the pre-elastic default) are full members from birth.
const (
	// StateActive: full member — training, exchanging, counted by peers.
	StateActive MemberState = iota
	// StateJoining: outside the federation, running the admission handshake.
	StateJoining
	// StateSyncing: WELCOME received, adopting the roster + weight snapshot.
	StateSyncing
	// StateDraining: leaving — final sends draining, tombstones broadcast.
	StateDraining
	// StateLeft: departed; the worker ignores all further traffic.
	StateLeft
)

// String returns the state's name.
func (s MemberState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateJoining:
		return "joining"
	case StateSyncing:
		return "syncing"
	case StateDraining:
		return "draining"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("MemberState(%d)", int(s))
}

// EpochChange records one roster mutation as this worker observed it. The
// GradMsgsSent snapshot makes renormalization testable: between two
// consecutive changes the worker sent exactly ΔIter·(Size-1) gradient
// messages (Size is the roster size the earlier entry established), which
// the testkit churn gate asserts.
type EpochChange struct {
	Epoch        int64   // roster version after the change
	T            float64 // Env time of the change
	Size         int     // roster size after the change (including self)
	Iter         int64   // this worker's completed iterations at the change
	GradMsgsSent int64   // cumulative gradient messages sent at the change
	Reason       string  // "seed", "join", "welcome", "leave", "left", "solo"
}

// initMembership seeds the roster from the configuration. Founders start
// active over InitialMembers (default: the whole 0..NumWorkers-1 address
// space); joiners start alone in StateJoining and acquire the roster from
// their sponsor's WELCOME.
func (w *Worker) initMembership() error {
	mc := w.cfg.Membership
	switch {
	case mc.Join:
		if mc.Sponsor == w.ID || mc.Sponsor >= len(w.peers) {
			return fmt.Errorf("core: worker %d cannot join through sponsor %d", w.ID, mc.Sponsor)
		}
		w.state = StateJoining
		w.peers[w.ID].member = true
	case len(mc.InitialMembers) > 0:
		for _, id := range mc.InitialMembers {
			if id < 0 || id >= len(w.peers) {
				return fmt.Errorf("core: InitialMembers %v outside [0,%d)", mc.InitialMembers, len(w.peers))
			}
			w.peers[id].member = true
		}
		if !w.peers[w.ID].member {
			return fmt.Errorf("core: worker %d not in InitialMembers %v", w.ID, mc.InitialMembers)
		}
	default:
		for i := range w.peers {
			w.peers[i].member = true
		}
	}
	w.rebuildMembers()
	return nil
}

// rosterOfOne shrinks the believed roster to this worker alone.
func (w *Worker) rosterOfOne() {
	for i := range w.peers {
		w.peers[i].member = i == w.ID
	}
}

// rebuildMembers refreshes the member cache, and the peer list derived
// from it, after a roster mutation: one ascending scan of the table, so
// both come out in id order. Every exchange path fans out over peerIDs —
// it is reached per delivered gradient while a worker waits on its sync
// strategy — so readers must not modify it, and it is allocated fresh
// rather than rewritten in place, so a slice taken before the mutation
// stays the roster it was.
func (w *Worker) rebuildMembers() {
	w.members = w.members[:0]
	for id := range w.peers {
		if w.peers[id].member {
			w.members = append(w.members, id)
		}
	}
	w.peerIDs = make([]int, 0, len(w.members))
	for _, id := range w.members {
		if id != w.ID {
			w.peerIDs = append(w.peerIDs, id)
		}
	}
}

// clusterSize is the roster size including self — the n of Eq. 5 and Eq. 7.
func (w *Worker) clusterSize() int { return len(w.members) }

// logMembership appends an EpochChange at the current epoch and refreshes
// the observability gauges. Call after every roster or epoch mutation.
func (w *Worker) logMembership(reason string) {
	w.memLog = append(w.memLog, EpochChange{
		Epoch:        w.epoch,
		T:            w.env.Now(),
		Size:         len(w.members),
		Iter:         w.iter,
		GradMsgsSent: w.stats.GradMsgsSent,
		Reason:       reason,
	})
	w.obs.SetMembership(int64(len(w.members)), w.epoch)
}

// bumpEpoch advances the roster version after a mutation and logs it.
func (w *Worker) bumpEpoch(reason string) {
	w.epoch++
	w.rebuildMembers()
	w.logMembership(reason)
}

// Membership accessors (drivers, metrics, tests).

// State returns the worker's membership state.
func (w *Worker) State() MemberState { return w.state }

// Epoch returns the current roster version.
func (w *Worker) Epoch() int64 { return w.epoch }

// Members returns the current roster (including self), in id order.
func (w *Worker) Members() []int {
	out := make([]int, len(w.members))
	copy(out, w.members)
	return out
}

// MembershipLog returns the worker's roster mutation history.
func (w *Worker) MembershipLog() []EpochChange {
	out := make([]EpochChange, len(w.memLog))
	copy(out, w.memLog)
	return out
}

// Degraded reports whether the live cluster is below the quorum floor.
func (w *Worker) Degraded() bool { return w.degradedNow() }

// degradedNow implements the quorum floor: with fewer than QuorumFloor live
// members (including self) the worker keeps training but stops blocking on
// its sync strategy and counts results as degraded. 0 disables the floor.
func (w *Worker) degradedNow() bool {
	q := w.cfg.Membership.QuorumFloor
	if q <= 0 {
		return false
	}
	return 1+len(w.livePeers()) < q
}

// StartJoin begins the admission handshake toward sponsor: HELLO with the
// needs-sync flag, retried with doubling backoff until a WELCOME arrives or
// JoinTimeout expires — at which point the worker degrades to solo training
// (roster of one) rather than wedging. Drivers call it instead of Start for
// workers added to a running federation.
func (w *Worker) StartJoin(sponsor int) {
	w.JoinStep()
	if w.started {
		panic("core: worker started twice")
	}
	if sponsor == w.ID || sponsor < 0 || sponsor >= len(w.peers) {
		panic(fmt.Sprintf("core: worker %d cannot join through sponsor %d", w.ID, sponsor))
	}
	w.started = true
	w.aliveFrom = w.env.Now()
	w.state = StateJoining
	w.rosterOfOne()
	w.rebuildMembers()
	w.joinStart = w.env.Now()
	w.joinWait = w.cfg.Membership.JoinRetry
	w.logMembership("seed")
	w.sendHello(sponsor, true)
	w.armJoinRetry(sponsor)
}

// armJoinRetry schedules the next HELLO retry. Each firing re-checks the
// join deadline first, so a lost WELCOME can only delay admission, never
// hang it. The backoff doubles but is clamped to the time remaining so the
// timeout check fires promptly at the deadline.
func (w *Worker) armJoinRetry(sponsor int) {
	w.after(w.joinWait, func() {
		if w.state != StateJoining {
			return
		}
		if w.env.Now()-w.joinStart >= w.cfg.Membership.JoinTimeout {
			w.soloFallback()
			return
		}
		w.sendHello(sponsor, true)
		w.joinWait *= 2
		if rem := w.joinStart + w.cfg.Membership.JoinTimeout - w.env.Now(); w.joinWait > rem {
			w.joinWait = rem
			if w.joinWait < 1e-3 {
				w.joinWait = 1e-3
			}
		}
		w.armJoinRetry(sponsor)
	})
}

// soloFallback abandons the handshake at the join deadline: the worker
// trains alone (roster of one) so a partitioned joiner still makes local
// progress. Below any QuorumFloor > 1 every iteration counts as degraded.
func (w *Worker) soloFallback() {
	w.state = StateActive
	w.bumpEpoch("solo")
	w.obs.ObserveJoin(w.env.Now() - w.joinStart)
	w.startTraining()
}

// sendHello sends a HELLO to peer. needSync marks it as an admission
// request (the receiver answers with a WELCOME snapshot); without the flag
// it is a join announcement from an already-admitted worker.
func (w *Worker) sendHello(to int, needSync bool) {
	m := &wire.Message{Type: wire.TypeHello, From: int32(w.ID), To: int32(to),
		Iter: w.iter, Epoch: w.epoch, Quant: uint8(w.cfg.Quant.Accept)}
	if needSync {
		m.Flags = wire.HelloNeedSync
	}
	w.send(m)
}

// handleHello admits the sender into the roster (bumping the epoch on first
// contact) and, for needs-sync HELLOs, answers with a WELCOME snapshot. A
// retried HELLO after a lost WELCOME re-sends the snapshot without
// re-bumping the epoch.
func (w *Worker) handleHello(m *wire.Message) {
	if w.state == StateJoining || w.state == StateSyncing {
		return // not yet a member; cannot admit or sponsor anyone
	}
	from := int(m.From)
	peer := &w.peers[from]
	// Record the sender's precision capabilities even on duplicate HELLOs:
	// the mask rides every handshake message, so the freshest wins.
	peer.quant = grad.PrecMask(m.Quant)
	if !peer.member {
		peer.member = true
		if m.Iter > peer.iter {
			peer.iter = m.Iter
		}
		w.bumpEpoch("join")
		w.recheckSync()
	}
	if m.Flags&wire.HelloNeedSync != 0 {
		w.sendWelcome(from)
	}
}

// sendWelcome answers an admission request with the epoch-stamped roster
// snapshot, the sponsor's GBS and iteration, and a full weight snapshot.
func (w *Worker) sendWelcome(to int) {
	members := make([]int32, 0, len(w.members))
	for _, id := range w.members {
		members = append(members, int32(id))
	}
	w.stats.WelcomesSent++
	w.send(&wire.Message{Type: wire.TypeWelcome, From: int32(w.ID), To: int32(to),
		Iter: w.iter, Epoch: w.epoch,
		GBS:     int32(w.gbs.GBSAt(w.env.Now(), w.epochsDone())),
		Quant:   uint8(w.cfg.Quant.Accept),
		Members: members, Weights: w.cloneWeights()})
}

// handleWelcome completes the joiner's admission: adopt the sponsor's
// roster, epoch, weights, iteration, and (fixed-mode) GBS, announce the
// join to the remaining members, then start training. (A joining worker's
// roster is itself alone, and HandleMessage has bounded the ids.)
func (w *Worker) handleWelcome(m *wire.Message) {
	if w.state != StateJoining {
		return // duplicate WELCOME from a retried HELLO
	}
	w.state = StateSyncing
	sponsor := int(m.From)
	w.peers[sponsor].quant = grad.PrecMask(m.Quant)
	for _, id := range m.Members {
		w.peers[id].member = true
	}
	w.peers[sponsor].member = true
	w.epoch = m.Epoch // the sponsor's epoch already counts this join
	w.rebuildMembers()
	now := w.env.Now()
	for _, p := range w.peerIDs {
		peer := &w.peers[p]
		peer.lastHeard, peer.heard = now, true
		// The cohort is at least at the sponsor's iteration; starting the
		// sync bookkeeping there keeps SyncFull from waiting on history the
		// joiner never ran.
		if peer.iter < m.Iter {
			peer.iter = m.Iter
		}
	}
	if len(m.Weights) > 0 {
		if err := w.model.SetWeights(m.Weights); err == nil {
			w.stats.DKTMerges++
		}
	}
	w.iter = m.Iter
	w.gbs.adopt(int(m.GBS), now)
	w.logMembership("welcome")
	w.obs.ObserveJoin(now - w.joinStart)
	// Announce the join to every member the sponsor did not admit us
	// through. FIFO links deliver these before our first gradients.
	for _, p := range w.peerIDs {
		if p != sponsor {
			w.sendHello(p, false)
		}
	}
	w.state = StateActive
	w.startTraining()
}

// handleLeave removes a tombstoned member and renormalizes: the roster
// shrinks, the epoch advances, and the departed worker's row of the peer
// table goes back to zero in the same event, so the id re-joining later
// starts clean. A blocked sync strategy re-evaluates immediately — the
// leaver can no longer block anyone.
func (w *Worker) handleLeave(m *wire.Message) {
	from := int(m.From)
	if !w.peers[from].member {
		return // duplicate tombstone
	}
	w.peers[from] = peerState{}
	w.bumpEpoch("leave")
	w.recheckSync()
}

// Leave departs the federation gracefully: a LEAVE tombstone to every
// roster peer (queued behind any gradients already sent on the same FIFO
// links, so peers apply them first), then the worker goes silent, its
// pending timers invalidated by Stop.
func (w *Worker) Leave() {
	if w.stopped || w.state == StateDraining || w.state == StateLeft {
		return
	}
	w.JoinStep()
	if w.state != StateJoining && w.state != StateSyncing {
		w.state = StateDraining
		for _, p := range w.peerIDs {
			w.send(&wire.Message{Type: wire.TypeLeave, From: int32(w.ID),
				To: int32(p), Iter: w.iter, Epoch: w.epoch})
		}
	}
	w.rosterOfOne()
	w.bumpEpoch("left")
	w.state = StateLeft
	w.Stop()
}
