package core

import (
	"fmt"
	"math"
	"testing"

	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// Elastic membership behavior over the fake env: admission handshake,
// solo fallback, tombstone renormalization, quorum degradation, and the
// suspicion timer's lifecycle across crash/restart (the cluster-level churn
// tests cover the full simulator + realtime integration).

// buildClusterCfgs is buildCluster with one config per worker, so founders
// and joiners can coexist in the same address space.
func buildClusterCfgs(t *testing.T, cfgs []Config, env *fakeEnv) []*Worker {
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
		w, err := New(i, cfgs[i], spec.Build(), shards[i], env)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	env.workers = ws
	return ws
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasReason(log []EpochChange, reason string) bool {
	for _, e := range log {
		if e.Reason == reason {
			return true
		}
	}
	return false
}

func TestJoinHandshakeAdmitsWorker(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	founder := asyncConfig()
	founder.Membership.InitialMembers = []int{0, 1}
	joiner := asyncConfig()
	joiner.Membership.Join = true
	joiner.Membership.Sponsor = 0
	ws := buildClusterCfgs(t, []Config{founder, founder, joiner}, env)
	ws[0].Start()
	ws[1].Start()
	env.eng.At(5, ws[2].Start)
	env.eng.Run(30)

	want := []int{0, 1, 2}
	for i, w := range ws {
		if got := w.Members(); !equalInts(got, want) {
			t.Fatalf("worker %d roster %v, want %v", i, got, want)
		}
	}
	if ws[2].State() != StateActive {
		t.Fatalf("joiner state %v, want active", ws[2].State())
	}
	if ws[2].Iter() < 5 {
		t.Fatalf("joiner barely trained: %d iters", ws[2].Iter())
	}
	if got := ws[0].Stats().WelcomesSent; got != 1 {
		t.Fatalf("sponsor served %d welcomes, want 1", got)
	}
	// The joiner adopted the sponsor's snapshot (counted as a merge) and
	// the sponsor's iteration, so it never reports a pre-join history.
	if ws[2].Stats().DKTMerges == 0 {
		t.Fatal("joiner never adopted the WELCOME weight snapshot")
	}
	// Worker 1 learned of the join via the announce HELLO, not a WELCOME.
	if !hasReason(ws[1].MembershipLog(), "join") {
		t.Fatalf("worker 1 log %+v missing join entry", ws[1].MembershipLog())
	}
	if ws[1].Stats().WelcomesSent != 0 {
		t.Fatal("announce HELLO must not trigger a WELCOME")
	}
	if !hasReason(ws[2].MembershipLog(), "welcome") {
		t.Fatalf("joiner log %+v missing welcome entry", ws[2].MembershipLog())
	}
	// Epochs converge on the same mutation count: one join observed by all.
	for i, w := range ws {
		if w.Epoch() != 1 {
			t.Fatalf("worker %d epoch %d, want 1", i, w.Epoch())
		}
	}
}

func TestJoinTimeoutFallsBackToSolo(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	founder := asyncConfig()
	founder.Membership.InitialMembers = []int{0}
	joiner := asyncConfig()
	joiner.Membership.Join = true
	joiner.Membership.Sponsor = 0
	joiner.Membership.JoinTimeout = 10
	joiner.Membership.JoinRetry = 1
	ws := buildClusterCfgs(t, []Config{founder, joiner}, env)
	env.dropTo[0] = true // the sponsor never hears the HELLOs
	ws[1].Start()
	env.eng.Run(40)

	if ws[1].State() != StateActive {
		t.Fatalf("joiner state %v, want active (solo)", ws[1].State())
	}
	if got := ws[1].Members(); !equalInts(got, []int{1}) {
		t.Fatalf("solo roster %v, want [1]", got)
	}
	if !hasReason(ws[1].MembershipLog(), "solo") {
		t.Fatalf("log %+v missing solo entry", ws[1].MembershipLog())
	}
	if ws[1].Iter() < 10 {
		t.Fatalf("solo worker barely trained: %d iters", ws[1].Iter())
	}
	hellos := 0
	for _, m := range env.sent {
		if m.Type == wire.TypeHello {
			hellos++
		}
	}
	// initial HELLO at t=0, retries at 1, 3, 7, then the deadline fires
	if hellos < 3 {
		t.Fatalf("%d HELLOs sent, want retries before the deadline", hellos)
	}
	// No training happened before the deadline: first iteration starts at
	// the fallback, i.e. JoinTimeout virtual seconds in.
	if len(ws[1].MembershipLog()) == 0 || ws[1].MembershipLog()[0].T != 0 {
		t.Fatal("join should have started at t=0")
	}
}

func TestLeaveRenormalizesSurvivors(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	cfg := asyncConfig()
	leaver := asyncConfig()
	leaver.Membership.LeaveAfterIters = 3
	ws := buildClusterCfgs(t, []Config{cfg, cfg, leaver}, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(30)

	if ws[2].State() != StateLeft {
		t.Fatalf("leaver state %v, want left", ws[2].State())
	}
	if ws[2].Iter() != 3 {
		t.Fatalf("leaver ran %d iters, want exactly 3", ws[2].Iter())
	}
	for i := 0; i < 2; i++ {
		if got := ws[i].Members(); !equalInts(got, []int{0, 1}) {
			t.Fatalf("survivor %d roster %v, want [0 1]", i, got)
		}
		log := ws[i].MembershipLog()
		if !hasReason(log, "leave") {
			t.Fatalf("survivor %d log %+v missing leave entry", i, log)
		}
		// Renormalization gate in miniature: after the tombstone every
		// completed iteration fans out to exactly size-1 = 1 peer.
		e := log[len(log)-1]
		s := ws[i].Stats()
		wantGrad := e.GradMsgsSent + (s.Iters-e.Iter)*int64(e.Size-1)
		if s.GradMsgsSent != wantGrad {
			t.Fatalf("survivor %d sent %d gradient msgs, want %d (exact renormalization)",
				i, s.GradMsgsSent, wantGrad)
		}
		if ws[i].Iter() < 15 {
			t.Fatalf("survivor %d stalled at %d iters", i, ws[i].Iter())
		}
	}
}

// TestPeerCacheFollowsRoster pins the peer list rebuildMembers caches: a
// join and a leave must both refresh it on every member that observes them,
// a slice handed out before a mutation stays the roster it was, and the
// exported Members copy is the caller's to scribble on.
func TestPeerCacheFollowsRoster(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	founder := asyncConfig()
	founder.Membership.InitialMembers = []int{0, 1}
	joiner := asyncConfig()
	joiner.Membership.Join = true
	joiner.Membership.Sponsor = 0
	ws := buildClusterCfgs(t, []Config{founder, founder, joiner}, env)
	ws[0].Start()
	ws[1].Start()
	before := ws[0].peerIDs
	if !equalInts(before, []int{1}) {
		t.Fatalf("founder peers %v before the join, want [1]", before)
	}
	env.eng.At(5, ws[2].Start)
	env.eng.Run(15)
	for i, want := range [][]int{{1, 2}, {0, 2}, {0, 1}} {
		if got := ws[i].peerIDs; !equalInts(got, want) {
			t.Fatalf("worker %d peers %v after the join, want %v", i, got, want)
		}
	}
	if !equalInts(before, []int{1}) {
		t.Fatalf("peer slice taken before the join was rewritten to %v", before)
	}

	ws[1].Leave()
	env.eng.Run(30)
	for i, want := range [][]int{{2}, {}, {0}} {
		if got := ws[i].peerIDs; !equalInts(got, want) {
			t.Fatalf("worker %d peers %v after the leave, want %v", i, got, want)
		}
	}

	own := ws[0].Members()
	own[0] = 99
	if got := ws[0].members; !equalInts(got, []int{0, 2}) {
		t.Fatalf("writing to Members' result reached the cache: %v", got)
	}
}

// TestPeerTableFollowsRoster covers the whole peer-table row, not only the
// roster bit: a leave zeroes the departed id's row on every observer, the
// same id re-joining starts from a clean row seeded by its HELLO/WELCOME,
// and Stop+Resume starts from a new process's table, which the sponsor's
// WELCOME refills.
func TestPeerTableFollowsRoster(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	founder := asyncConfig()
	founder.LivenessTimeout = 10
	founder.LinkBudget = true
	founder.Batch.DynamicBatching = true
	founder.DKT = DKTConfig{Enabled: true, Period: 2, Lambda: 0.5}
	joiner := founder
	joiner.Membership.Join = true
	joiner.Membership.Sponsor = 0
	ws := buildClusterCfgs(t, []Config{founder, founder, founder}, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	for _, i := range []int{0, 2} {
		e := ws[i].peers[1]
		if !e.member || e.rcp <= 0 || e.iter == 0 || !e.hasLoss || e.lastHeard == 0 ||
			e.selCount == 0 || e.budget == 0 {
			t.Fatalf("worker %d knows too little about peer 1 for the leave to prove anything: %+v", i, e)
		}
	}

	ws[1].Leave()
	env.eng.Run(12)
	for _, i := range []int{0, 2} {
		if e := ws[i].peers[1]; e != (peerState{}) {
			t.Fatalf("worker %d kept state about departed peer 1: %+v", i, e)
		}
	}

	// The id comes back as a new process: no iterations, default weights.
	again, err := New(1, joiner, ws[1].model, ws[1].shard, env)
	if err != nil {
		t.Fatal(err)
	}
	ws[1], env.workers[1] = again, again
	again.Start()
	// The handshake is instantaneous on this env; half a second stays short
	// of the rejoiner's first gradient, which would move iter past its seed.
	env.eng.Run(12.5)
	if got := again.Members(); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("rejoiner roster %v, want [0 1 2]", got)
	}
	seed := again.Iter() // adopted from the sponsor's WELCOME
	if seed == 0 {
		t.Fatal("rejoiner did not adopt the sponsor's iteration")
	}
	for _, i := range []int{0, 2} {
		e := ws[i].peers[1]
		if !e.member || e.quant != grad.MaskAll || e.hasLoss || e.suspected {
			t.Fatalf("worker %d's row for rejoined peer 1: %+v", i, e)
		}
		// The sponsor saw the admission HELLO (iteration 0), everyone else
		// the announce sent after the WELCOME was adopted.
		if want := map[int]int64{0: 0, 2: seed}[i]; e.iter != want {
			t.Fatalf("worker %d seeded peer 1 at iteration %d, want %d", i, e.iter, want)
		}
		if e := again.peers[i]; !e.member || e.lastHeard == 0 || e.iter < seed {
			t.Fatalf("rejoiner's row for member %d: %+v (sponsor iteration %d)", i, e, seed)
		}
	}

	env.eng.Run(25)
	w := ws[0]
	if e := w.peers[2]; !e.hasLoss || e.iter == 0 || e.rcp <= 0 {
		t.Fatalf("peer 2 had too little state before the restart: %+v", e)
	}
	w.Stop()
	w.Resume(1)
	for id, e := range w.peers {
		e.lastSent = 0 // the admission HELLO just went to the sponsor
		if want := (peerState{member: id == w.ID}); e != want {
			t.Fatalf("row %d right after Resume: %+v, want %+v", id, e, want)
		}
	}
	env.eng.Run(25.5)
	var welcome EpochChange
	for _, e := range w.MembershipLog() {
		if e.Reason == "welcome" {
			welcome = e
		}
	}
	if got := w.Members(); !equalInts(got, []int{0, 1, 2}) || welcome.T != 25 || w.Iter() != welcome.Iter {
		t.Fatalf("restarted worker: roster %v at iteration %d, welcome %+v", got, w.Iter(), welcome)
	}
	for _, id := range []int{1, 2} {
		if e := w.peers[id]; !e.member || e.iter < welcome.Iter || e.hasLoss {
			t.Fatalf("restarted worker's row for member %d: %+v (sponsor iteration %d)", id, e, welcome.Iter)
		}
	}
}

// TestOutOfRangeIDsRejected: worker ids index the peer table, so an id that
// arrives from outside the program is bounded before it is used. A message
// whose From is outside [0, NumWorkers), or a WELCOME naming such a member,
// is dropped before it touches any state, and New refuses a configuration
// that names one.
func TestOutOfRangeIDsRejected(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	founder := asyncConfig()
	founder.Membership.InitialMembers = []int{0, 1}
	joiner := asyncConfig()
	joiner.Membership.Join = true
	joiner.Membership.Sponsor = 0
	ws := buildClusterCfgs(t, []Config{founder, founder, joiner}, env)
	ws[0].Start()
	ws[1].Start()
	env.eng.Run(3)

	foreign := map[string]*tensor.Tensor{}
	for _, p := range ws[0].model.Params() {
		foreign[p.Name] = tensor.New(p.W.Shape...)
	}
	snapshot := func(w *Worker) string {
		s := fmt.Sprint(w.Members(), w.Epoch(), w.State(), w.Iter(), len(w.peers), w.peers, len(env.sent))
		for _, p := range w.model.Params() {
			s += fmt.Sprint(p.W.Data)
		}
		return s
	}
	types := []wire.MsgType{wire.TypeGradient, wire.TypeLossReport, wire.TypeDKTRequest,
		wire.TypeWeights, wire.TypeRCPReport, wire.TypeHello, wire.TypeWelcome, wire.TypeLeave}
	froms := []int32{-1, int32(env.n), math.MaxInt32}
	rejected := int64(len(froms) * len(types))
	for wi, w := range []*Worker{ws[0], ws[2]} { // an active member and a joiner
		want, recvd := snapshot(w), w.Stats().MsgsRecvd
		for _, from := range froms {
			for _, typ := range types {
				w.HandleMessage(&wire.Message{Type: typ, From: from, To: int32(w.ID),
					Iter: 99, Epoch: 99, Flags: wire.HelloNeedSync, RCP: 5, Loss: 1e-9,
					GBS: 64, Members: []int32{0, 1, 2}, Weights: foreign})
				if got := snapshot(w); got != want {
					t.Fatalf("worker %d changed on a %v from %d:\n got %s\nwant %s", wi, typ, from, got, want)
				}
			}
		}
		if s := w.Stats(); s.MsgsRejected != rejected || s.MsgsRecvd != recvd {
			t.Fatalf("worker %d: %d rejected (want %d), %d received (want %d)",
				wi, s.MsgsRejected, rejected, s.MsgsRecvd, recvd)
		}
	}

	// A WELCOME from a real sponsor whose roster names an impossible id.
	j := ws[2]
	want := snapshot(j)
	for _, members := range [][]int32{{0, 1, 3}, {-1, 0}, {0, math.MaxInt32}} {
		j.HandleMessage(&wire.Message{Type: wire.TypeWelcome, From: 0, To: 2,
			Iter: 99, Epoch: 99, GBS: 64, Members: members, Weights: foreign})
		if got := snapshot(j); got != want {
			t.Fatalf("joiner adopted part of a WELCOME naming %v:\n got %s\nwant %s", members, got, want)
		}
	}
	if got := j.Stats().MsgsRejected; got != rejected+3 {
		t.Fatalf("joiner rejected %d messages, want %d", got, rejected+3)
	}
	// The handshake is still open: a well-formed WELCOME admits the worker.
	j.Start()
	env.eng.Run(10)
	if got := j.Members(); j.State() != StateActive || !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("joiner %v with roster %v after a valid handshake", j.State(), got)
	}

	for name, mutate := range map[string]func(id *int, c *Config){
		"member past the cluster": func(_ *int, c *Config) { c.Membership.InitialMembers = []int{0, 1, 3} },
		"negative member":         func(_ *int, c *Config) { c.Membership.InitialMembers = []int{-1, 0} },
		"sponsor past the cluster": func(id *int, c *Config) {
			*id, c.Membership = 2, MembershipConfig{Join: true, Sponsor: 3}
		},
		"id past the cluster": func(id *int, _ *Config) { *id = 3 },
		"negative id":         func(id *int, _ *Config) { *id = -1 },
	} {
		id, cfg := 0, founder
		mutate(&id, &cfg)
		if _, err := New(id, cfg, ws[0].model, ws[0].shard, env); err == nil {
			t.Errorf("%s: New accepted it", name)
		}
	}
}

func TestLeaveUnblocksSyncFullPeer(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	leaver := cfg
	leaver.Membership.LeaveAfterIters = 2
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildClusterCfgs(t, []Config{cfg, leaver}, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(40)
	// Without the tombstone-triggered re-evaluation worker 0 would block
	// forever at iteration 3 (LivenessTimeout is 0 here).
	if ws[0].Iter() < 30 {
		t.Fatalf("survivor blocked after peer left: %d iters", ws[0].Iter())
	}
}

func TestQuorumFloorDegradesInsteadOfBlocking(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.LivenessTimeout = 5
	cfg.Membership.QuorumFloor = 3
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	ws[2].Stop()
	env.eng.Run(60)
	if !ws[0].Degraded() {
		t.Fatal("survivor below the quorum floor must report degraded")
	}
	s := ws[0].Stats()
	if s.DegradedIters == 0 {
		t.Fatal("degraded iterations not counted")
	}
	if ws[0].Iter() < 30 {
		t.Fatalf("degraded worker should keep training: %d iters", ws[0].Iter())
	}
	if s.DegradedIters >= s.Iters {
		t.Fatalf("all %d iters degraded; pre-crash ones should not be", s.Iters)
	}
}

func TestMembershipValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"negative quorum":  func(c *Config) { c.Membership.QuorumFloor = -1 },
		"negative timeout": func(c *Config) { c.Membership.JoinTimeout = -1 },
		"negative retry":   func(c *Config) { c.Membership.JoinRetry = -1 },
		"negative leave":   func(c *Config) { c.Membership.LeaveAfterIters = -1 },
		"join+initial": func(c *Config) {
			c.Membership.Join = true
			c.Membership.InitialMembers = []int{0}
		},
	}
	for name, mutate := range bad {
		c := asyncConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
}

func TestNewRejectsBadMembership(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"self sponsor":   func(c *Config) { c.Membership.Join = true; c.Membership.Sponsor = 0 },
		"not in initial": func(c *Config) { c.Membership.InitialMembers = []int{1, 2} },
	} {
		env := newFakeEnv(3, []float64{1, 1, 1})
		cfg := asyncConfig()
		mutate(&cfg)
		cfgs := []Config{cfg, asyncConfig(), asyncConfig()}
		func() {
			defer func() { recover() }() // buildClusterCfgs t.Fatal is fine too
			dc := data.Config{Name: "t", NumClasses: 3, Train: 120, Test: 30,
				Channels: 1, Height: 8, Width: 8, Noise: 0.3, Bumps: 3, Seed: 4}
			tr, _, err := data.Generate(dc)
			if err != nil {
				t.Fatal(err)
			}
			shards, err := data.Partition(tr, env.n, 5)
			if err != nil {
				t.Fatal(err)
			}
			spec := nn.CipherSpec(1, 8, 8, 3, 77)
			if _, err := New(0, cfgs[0], spec.Build(), shards[0], env); err == nil {
				t.Errorf("%s: New accepted a bad membership config", name)
			}
		}()
	}
}

func TestMemberStateStrings(t *testing.T) {
	want := map[MemberState]string{
		StateActive: "active", StateJoining: "joining", StateSyncing: "syncing",
		StateDraining: "draining", StateLeft: "left",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("state %d string %q, want %q", int(s), s.String(), name)
		}
	}
	if got := MemberState(42).String(); got != fmt.Sprintf("MemberState(42)") {
		t.Fatalf("unknown state renders %q", got)
	}
}

// TestSuspectTimerRearmsAfterStopResume: a worker that crashes while its
// suspicion timer is pending re-arms it when it rejoins. Worker 0 rejoins
// before its sponsor has suspected the dead worker 2, so it adopts a
// roster with 2 in it; only its own timer can take 2 out and unblock
// SyncFull.
func TestSuspectTimerRearmsAfterStopResume(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.LivenessTimeout = 5
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[2].Stop()
	// Let worker 0 block on the silent peer with its timer armed, then
	// crash worker 0 while the timer is pending.
	env.eng.Run(12)
	ws[0].Stop()
	ws[0].Resume(1)
	env.eng.Run(60)
	if ws[0].Iter() < 40 {
		t.Fatalf("resumed worker hung at %d iters: suspicion timer never re-armed", ws[0].Iter())
	}
	for _, w := range ws[:2] {
		if got := w.Members(); !equalInts(got, []int{0, 1}) {
			t.Fatalf("worker %d roster %v, want [0 1]", w.ID, got)
		}
	}
}

// TestSuspectFiringAfterRecoveryIsNoop: the timer armed for a silent peer
// may fire after that peer restarted and was heard from again; the firing
// must suspect nobody, and the pair keeps training in lockstep.
func TestSuspectFiringAfterRecoveryIsNoop(t *testing.T) {
	cfg := asyncConfig()
	cfg.Sync.Mode = SyncFull
	cfg.LivenessTimeout = 8
	env := newFakeEnv(2, []float64{1, 1})
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)
	ws[1].Stop()
	env.eng.Run(13) // worker 0 blocks; its timer is due at t ≈ 18
	ws[1].Resume(0)
	env.eng.Run(60) // the peer is back before the timer fires
	if hasReason(ws[0].MembershipLog(), "suspect") {
		t.Fatalf("worker 0 suspected its recovered peer: %+v", ws[0].MembershipLog())
	}
	d := ws[0].Iter() - ws[1].Iter()
	if d < -2 || d > 2 {
		t.Fatalf("lockstep broken after recovery: %d vs %d", ws[0].Iter(), ws[1].Iter())
	}
	if ws[0].Iter() < 40 {
		t.Fatalf("cluster stalled after recovery: %d iters", ws[0].Iter())
	}
}
