// Package simclock is a discrete-event simulation engine with a virtual
// clock. It replaces the wall-clock of the paper's physical clusters: a
// 1500-virtual-second DLion experiment executes in however long the actual
// gradient math takes, while compute and network durations are charged to
// virtual time by the cost models in simcompute and simnet.
//
// Events fire in (time, insertion-order) order, so simulations are fully
// deterministic. The scheduler is a 4-ary min-heap of value-typed events
// (heap.go): O(log n) push and pop whatever the schedule's shape, which is
// what the all-to-all bursts of the fleet-scale federations in DESIGN.md
// §14 need.
package simclock

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all event callbacks run on the caller's goroutine inside
// Run/Step.
type Engine struct {
	now      float64
	seq      uint64
	executed uint64
	q        eventHeap
}

// Handler is a pre-bound event callback. Scheduling one stores the
// interface value inside a value-typed queue event, so hot paths (message
// delivery) implement Fire on a pooled struct instead of capturing state in
// a fresh closure per event.
type Handler interface{ Fire() }

// funcHandler adapts a closure to Handler. A func value is pointer-shaped,
// so the conversion itself allocates nothing.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.q) }

// Executed returns how many events have fired since construction — the
// numerator of a DES throughput measurement (events per wall second).
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) clamps to Now: the event runs next, preserving causality.
func (e *Engine) At(t float64, fn func()) { e.AtHandler(t, funcHandler(fn)) }

// After schedules fn to run d seconds from now. Negative d clamps to 0.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// AtHandler schedules h.Fire at absolute virtual time t with the same
// clamping as At. Unlike At, it allocates nothing: the handler rides inside
// the value-typed queue event.
func (e *Engine) AtHandler(t float64, h Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.push(event{at: t, seq: e.seq, h: h})
}

// AfterHandler schedules h.Fire d seconds from now. Negative d clamps to 0.
func (e *Engine) AfterHandler(d float64, h Handler) {
	if d < 0 {
		d = 0
	}
	e.AtHandler(e.now+d, h)
}

// Every schedules fn at now+period, now+2·period, … until either stop
// returns true (checked before each firing) or the engine runs past its
// horizon. period must be > 0.
func (e *Engine) Every(period float64, fn func(), stop func() bool) {
	if period <= 0 {
		panic("simclock: Every with period <= 0")
	}
	var tick func()
	tick = func() {
		if stop != nil && stop() {
			return
		}
		fn()
		e.After(period, tick)
	}
	e.After(period, tick)
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev, ok := e.q.pop()
	if !ok {
		return false
	}
	e.now = ev.at
	e.executed++
	ev.h.Fire()
	return true
}

// Run executes events until the queue is empty or the next event is later
// than horizon. The clock always parks at the horizon afterwards (events
// beyond the horizon remain queued), whether the stop came from a drained
// queue or from a future-dated event — the simulated interval [Now, horizon]
// elapsed either way. Run never moves the clock backwards: a horizon in the
// past executes nothing and leaves Now unchanged.
func (e *Engine) Run(horizon float64) {
	for {
		at, ok := e.q.peek()
		if !ok || at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// RunAll executes every queued event (including ones scheduled by other
// events) until the queue drains. Use only with workloads that are known to
// terminate.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}
