// Package obs is the runtime observability layer: per-worker phase clocks,
// atomic process-wide counters, machine-readable run reports, and the debug
// HTTP endpoints (pprof + expvar) the binaries expose behind -debug-addr.
//
// The paper's evaluation (§5) rests on breakdowns — computation vs.
// communication time per worker, bytes moved per message class, quality vs.
// cost — that must be measured at runtime, not inferred. A worker's counts
// live in its core.Stats and its time in a WorkerObs; core.Worker.Report
// renders both as one WorkerReport. Every name this package exports is
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
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, gauges: map[string]*Gauge{},
		histograms: map[string]*Histogram{}}
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

// Snapshot returns every metric as name → value. Gauges contribute their
// current value under their name and the high-water mark under
// name + ".max". A nil registry snapshots to an empty map.
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
	return out
}

// WorkerObs is one worker's phase clock: seconds charged to each Phase.
// The counts a worker reports live in its core.Stats; the clock is kept
// apart because real mode charges PhaseSend from its sender goroutines, so
// every method is atomic, and a no-op on a nil receiver — the disabled fast
// path.
type WorkerObs struct {
	phaseNS [NumPhases]atomic.Int64 // nanoseconds (virtual or wall)
}

// NewWorkerObs returns a zeroed per-worker phase clock.
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
