// Package obs is the runtime observability layer: per-worker phase tracing,
// atomic runtime counters, machine-readable run reports, and the debug HTTP
// endpoints (pprof + expvar) the binaries expose behind -debug-addr.
//
// The paper's evaluation (§5) rests on breakdowns — computation vs.
// communication time per worker, bytes moved per message class, quality vs.
// cost — that must be measured at runtime, not inferred. This package is
// the single place those measurements accumulate. Every name it exports is
// documented in METRICS.md, which is the schema contract for the
// BENCH_*.json files tracking the repo's performance trajectory.
//
// Everything is nil-safe: a nil *WorkerObs, *Counter, *Gauge, or *Registry
// turns every recording call into a cheap no-op, so instrumented hot paths
// pay one nil check when observability is disabled (verified by the
// benchmarks in this package).
package obs

import (
	"sync"
	"sync/atomic"
)

// Phase identifies one slice of a worker's iteration wall/virtual time.
// In simulation the durations are virtual seconds charged by the cost
// models (apply is modeled as free and records 0); in real mode they are
// measured wall-clock seconds.
type Phase uint8

// The five phases of a DLion worker's loop (§5 time breakdowns).
const (
	PhaseCompute   Phase = iota // forward+backward pass: what the Env charged the iteration (DESIGN.md §2)
	PhaseSerialize              // encoding messages onto the wire / egress serialization
	PhaseSend                   // transport send / modeled propagation delay
	PhaseRecvWait               // blocked on the sync strategy waiting for peer gradients
	PhaseApply                  // applying remote gradients and DKT weight merges
	NumPhases
)

var phaseNames = [NumPhases]string{"compute", "serialize", "send", "recv_wait", "apply"}

// String returns the phase's METRICS.md name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// MsgClass buckets wire messages for byte accounting: bulk gradient
// payloads, bulk DKT weight payloads, and small control traffic (loss/RCP
// reports, DKT requests, membership frames).
type MsgClass uint8

// Message classes.
const (
	ClassGradient MsgClass = iota
	ClassWeights
	ClassControl
	NumClasses
)

var classNames = [NumClasses]string{"gradient", "weights", "control"}

// String returns the class's METRICS.md name.
func (c MsgClass) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "unknown"
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that also tracks its high-water
// mark. All methods are safe for concurrent use and no-ops on nil.
type Gauge struct{ v, max atomic.Int64 }

// Set records the current value and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the last value set (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark (0 on a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Registry is a named set of counters and gauges shared by the subsystems
// of one process (broker lists, FIFO senders, reconnect loops, ...).
// Lookup allocates on first use of a name and is mutex-guarded; recording
// through the returned handles is lock-free. A nil *Registry hands out nil
// handles, so "no registry configured" disables every counter downstream.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]func() int64 // AttachFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, gauges: map[string]*Gauge{}}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// AttachFunc registers a value another package owns under name, read
// through load at every snapshot, so package-level counters in packages obs
// cannot import appear in snapshots and expvar next to registry-born ones. Re-attaching a name replaces the
// previous reader. No-op on a nil registry or nil load.
func (r *Registry) AttachFunc(name string, load func() int64) {
	if r == nil || load == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = map[string]func() int64{}
	}
	r.funcs[name] = load
}

// Snapshot returns every metric as name → value. Gauges contribute their
// current value under their name and the high-water mark under
// name + ".max"; attached readers contribute what they read. A nil registry
// snapshots to an empty map.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
		out[name+".max"] = g.Max()
	}
	for name, load := range r.funcs {
		out[name] = load()
	}
	return out
}

// WorkerObs accumulates one worker's phase times and per-class transfer
// counters. All recording methods are atomic (real mode calls them from
// the event loop and sender goroutines concurrently) and no-ops on a nil
// receiver — the disabled fast path.
type WorkerObs struct {
	phaseNS   [NumPhases]atomic.Int64 // nanoseconds (virtual or wall)
	sentBytes [NumClasses]atomic.Int64
	sentMsgs  [NumClasses]atomic.Int64
	recvBytes [NumClasses]atomic.Int64
	recvMsgs  [NumClasses]atomic.Int64

	livenessExpiries atomic.Int64
	syncBlocks       atomic.Int64
	msgsRejected     atomic.Int64

	// wire.quant_bytes_saved (METRICS.md): wire bytes avoided by encoding
	// gradient selections at reduced precision instead of f32.
	quantBytesSaved atomic.Int64

	// Elastic membership (METRICS.md §membership): current roster size,
	// roster epoch, iterations completed below the quorum floor, and the
	// admission handshake latency (0 for founders). joinHist, when attached,
	// additionally feeds a cluster-level join latency histogram.
	rosterSize    atomic.Int64
	epoch         atomic.Int64
	degradedIters atomic.Int64
	joinLatencyNS atomic.Int64
	joinHist      *Histogram
}

// NewWorkerObs returns a zeroed per-worker sink.
func NewWorkerObs() *WorkerObs { return &WorkerObs{} }

// AddPhase charges seconds (virtual or wall) to phase p. Negative or NaN
// durations are dropped — clock skew must not corrupt the breakdown.
func (o *WorkerObs) AddPhase(p Phase, seconds float64) {
	if o == nil || !(seconds > 0) || p >= NumPhases {
		return
	}
	o.phaseNS[p].Add(int64(seconds * 1e9))
}

// PhaseSeconds returns the accumulated time in phase p.
func (o *WorkerObs) PhaseSeconds(p Phase) float64 {
	if o == nil || p >= NumPhases {
		return 0
	}
	return float64(o.phaseNS[p].Load()) / 1e9
}

// AddSent records an outbound message of class c with the given wire size.
func (o *WorkerObs) AddSent(c MsgClass, bytes int) {
	if o == nil || c >= NumClasses {
		return
	}
	o.sentMsgs[c].Add(1)
	o.sentBytes[c].Add(int64(bytes))
}

// AddRecv records a delivered inbound message of class c.
func (o *WorkerObs) AddRecv(c MsgClass, bytes int) {
	if o == nil || c >= NumClasses {
		return
	}
	o.recvMsgs[c].Add(1)
	o.recvBytes[c].Add(int64(bytes))
}

// AddQuantSaved records wire bytes avoided by reduced-precision encoding.
func (o *WorkerObs) AddQuantSaved(bytes int) {
	if o != nil && bytes > 0 {
		o.quantBytesSaved.Add(int64(bytes))
	}
}

// QuantBytesSaved returns the accumulated reduced-precision byte savings.
func (o *WorkerObs) QuantBytesSaved() int64 {
	if o == nil {
		return 0
	}
	return o.quantBytesSaved.Load()
}

// IncLivenessExpiry records one member removed from the roster by
// suspicion (silent for the liveness timeout).
func (o *WorkerObs) IncLivenessExpiry() {
	if o != nil {
		o.livenessExpiries.Add(1)
	}
}

// IncSyncBlock records the worker blocking on its synchronization strategy.
func (o *WorkerObs) IncSyncBlock() {
	if o != nil {
		o.syncBlocks.Add(1)
	}
}

// IncMsgRejected records one message dropped for naming a worker id outside
// the cluster's address space.
func (o *WorkerObs) IncMsgRejected() {
	if o != nil {
		o.msgsRejected.Add(1)
	}
}

// SetMembership records the worker's current roster size and roster epoch.
// The roster size gauge keeps its high-water mark via Snapshot consumers;
// here it is a plain last-value pair updated on every epoch change.
func (o *WorkerObs) SetMembership(size, epoch int64) {
	if o == nil {
		return
	}
	o.rosterSize.Store(size)
	o.epoch.Store(epoch)
}

// IncDegradedIter records one iteration completed below the quorum floor.
func (o *WorkerObs) IncDegradedIter() {
	if o != nil {
		o.degradedIters.Add(1)
	}
}

// SetJoinHistogram attaches a (usually registry-owned) histogram that
// ObserveJoin also feeds, aggregating join latency across workers. Call
// before Start; no-op on a nil sink.
func (o *WorkerObs) SetJoinHistogram(h *Histogram) {
	if o != nil {
		o.joinHist = h
	}
}

// ObserveJoin records the admission handshake latency in seconds (HELLO
// sent → WELCOME adopted, or → solo fallback).
func (o *WorkerObs) ObserveJoin(seconds float64) {
	if o == nil || !(seconds >= 0) {
		return
	}
	o.joinLatencyNS.Store(int64(seconds * 1e9))
	o.joinHist.Observe(seconds)
}

// Snapshot renders the sink as the report schema's per-worker record. A
// nil sink snapshots to a zeroed record with the given id.
func (o *WorkerObs) Snapshot(id int) WorkerReport {
	w := WorkerReport{
		ID:        id,
		Phases:    map[string]float64{},
		SentBytes: map[string]int64{},
		SentMsgs:  map[string]int64{},
		RecvBytes: map[string]int64{},
		RecvMsgs:  map[string]int64{},
	}
	if o == nil {
		return w
	}
	for p := Phase(0); p < NumPhases; p++ {
		w.Phases[p.String()] = o.PhaseSeconds(p)
	}
	for c := MsgClass(0); c < NumClasses; c++ {
		w.SentBytes[c.String()] = o.sentBytes[c].Load()
		w.SentMsgs[c.String()] = o.sentMsgs[c].Load()
		w.RecvBytes[c.String()] = o.recvBytes[c].Load()
		w.RecvMsgs[c.String()] = o.recvMsgs[c].Load()
	}
	w.LivenessExpiries = o.livenessExpiries.Load()
	w.SyncBlocks = o.syncBlocks.Load()
	w.MsgsRejected = o.msgsRejected.Load()
	w.QuantBytesSaved = o.quantBytesSaved.Load()
	w.RosterSize = o.rosterSize.Load()
	w.Epoch = o.epoch.Load()
	w.DegradedIters = o.degradedIters.Load()
	w.JoinLatencyS = float64(o.joinLatencyNS.Load()) / 1e9
	return w
}
