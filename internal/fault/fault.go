// Package fault makes failure a first-class, injectable condition. DLion
// targets micro-clouds — small, geo-distributed clusters whose nodes and
// WAN links fail far more often than a datacenter's — so the harnesses must
// be able to rehearse those failures deterministically. A Schedule declares
// what goes wrong and when (worker crashes with optional restart, joins and
// leaves, link partitions, packet loss, extra delay, message corruption);
// an Injector compiled from it answers the discrete-event simulator's
// (internal/cluster) per-message verdicts. The simulator is its only
// consumer: real-mode runs are not fault-injected.
package fault

import (
	"fmt"

	"dlion/internal/stats"
)

// Any is a wildcard endpoint: a partition/loss/delay rule with From or To
// set to Any matches every worker on that side.
const Any = -1

// Window is a time interval [Start, End) in virtual seconds. End = 0 means
// open-ended.
type Window struct {
	Start, End float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool {
	return t >= w.Start && (w.End <= 0 || t < w.End)
}

func (w Window) validate(kind string) error {
	if w.Start < 0 {
		return fmt.Errorf("fault: %s window start %v < 0", kind, w.Start)
	}
	if w.End != 0 && w.End <= w.Start {
		return fmt.Errorf("fault: %s window [%v, %v) is empty", kind, w.Start, w.End)
	}
	return nil
}

// Crash kills Worker at time At. RestartAfter > 0 brings it back that many
// seconds later (restored from its latest checkpoint by the harness);
// RestartAfter <= 0 means the worker never returns.
type Crash struct {
	Worker       int
	At           float64
	RestartAfter float64
}

// Partition severs the directed link From->To (wildcards allowed) during
// the window; Bidirectional also severs To->From. Messages on a partitioned
// link are dropped before they consume any egress bandwidth.
type Partition struct {
	From, To      int
	Bidirectional bool
	Window
}

func (p Partition) matches(from, to int) bool {
	if matchLink(p.From, p.To, from, to) {
		return true
	}
	return p.Bidirectional && matchLink(p.From, p.To, to, from)
}

// Loss drops each message on the matching link with probability Rate
// during the window. Unlike a partition, a lost message still occupied the
// sender's egress link — it died in the WAN, not at the NIC.
type Loss struct {
	From, To int
	Rate     float64
	Window
}

// Delay adds Extra seconds to the delivery of each message on the matching
// link during the window (a congested or rerouted WAN path).
type Delay struct {
	From, To int
	Extra    float64
	Window
}

// Corrupt flips each message on the matching link to garbage with
// probability Rate during the window. Receivers are assumed to detect the
// damage (framing/integrity check) and discard the message, so a corrupted
// message behaves like a loss that still crossed the wire.
type Corrupt struct {
	From, To int
	Rate     float64
	Window
}

// Join adds Worker to the federation at time At via the membership
// admission handshake. Sponsor is the member the joiner HELLOs; Sponsor < 0
// lets the harness pick a live member at join time. Workers with a Join
// entry stay dormant (not started, not counted in founding rosters) until
// At.
type Join struct {
	Worker  int
	At      float64
	Sponsor int
}

// Leave makes Worker depart gracefully at time At: drain in-flight sends,
// broadcast a membership tombstone, and go silent. Unlike a Crash, peers
// renormalize immediately instead of waiting for a liveness expiry.
//
// AfterIters > 0 selects the step-exact trigger instead: the worker leaves
// after completing exactly that many of its own iterations (the core's
// Membership.LeaveAfterIters), independent of wall or virtual time. The
// equivalence harness uses this form — a time-scheduled leave lands on a
// substrate-dependent iteration, an iteration-scheduled one does not. The
// two triggers are mutually exclusive: with AfterIters set, At must be 0.
type Leave struct {
	Worker     int
	At         float64
	AfterIters int64
}

// Schedule is a declarative description of everything that goes wrong in
// one run. The zero value (and a nil *Schedule) injects no faults.
type Schedule struct {
	Crashes    []Crash
	Joins      []Join
	Leaves     []Leave
	Partitions []Partition
	Loss       []Loss
	Delays     []Delay
	Corruption []Corrupt

	// CheckpointPeriod is how often (seconds) the harness snapshots each
	// worker's weights so a crashed worker can restart from a recent state
	// rather than from scratch. 0 disables periodic checkpoints; crashed
	// workers then restart from a fresh model and rely on the rejoin
	// re-sync to catch up.
	CheckpointPeriod float64

	// Seed drives the injector's RNG (loss/corruption sampling). Runs with
	// the same schedule and seed make identical drop decisions.
	Seed uint64
}

// Validate checks the schedule against a cluster of n workers. n <= 0
// skips endpoint range checks.
func (s *Schedule) Validate(n int) error {
	if s == nil {
		return nil
	}
	checkEndpoint := func(kind string, id int) error {
		if id == Any {
			return nil
		}
		if id < 0 || (n > 0 && id >= n) {
			return fmt.Errorf("fault: %s endpoint %d out of range (n=%d)", kind, id, n)
		}
		return nil
	}
	for _, c := range s.Crashes {
		if c.Worker < 0 || (n > 0 && c.Worker >= n) {
			return fmt.Errorf("fault: crash worker %d out of range (n=%d)", c.Worker, n)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash of worker %d at %v < 0", c.Worker, c.At)
		}
	}
	joiners := map[int]bool{}
	for _, j := range s.Joins {
		if j.Worker < 0 || (n > 0 && j.Worker >= n) {
			return fmt.Errorf("fault: join worker %d out of range (n=%d)", j.Worker, n)
		}
		if j.At < 0 {
			return fmt.Errorf("fault: join of worker %d at %v < 0", j.Worker, j.At)
		}
		if n > 0 && j.Sponsor >= n {
			return fmt.Errorf("fault: join sponsor %d out of range (n=%d)", j.Sponsor, n)
		}
		if j.Sponsor == j.Worker {
			return fmt.Errorf("fault: worker %d sponsoring its own join", j.Worker)
		}
		if joiners[j.Worker] {
			return fmt.Errorf("fault: worker %d joins twice", j.Worker)
		}
		joiners[j.Worker] = true
	}
	for _, l := range s.Leaves {
		if l.Worker < 0 || (n > 0 && l.Worker >= n) {
			return fmt.Errorf("fault: leave worker %d out of range (n=%d)", l.Worker, n)
		}
		if l.At < 0 {
			return fmt.Errorf("fault: leave of worker %d at %v < 0", l.Worker, l.At)
		}
		if l.AfterIters < 0 {
			return fmt.Errorf("fault: leave of worker %d after %d iters < 0", l.Worker, l.AfterIters)
		}
		if l.AfterIters > 0 && l.At != 0 {
			return fmt.Errorf("fault: leave of worker %d sets both At and AfterIters", l.Worker)
		}
	}
	for _, p := range s.Partitions {
		if err := checkEndpoint("partition", p.From); err != nil {
			return err
		}
		if err := checkEndpoint("partition", p.To); err != nil {
			return err
		}
		if err := p.Window.validate("partition"); err != nil {
			return err
		}
	}
	for _, l := range s.Loss {
		if err := checkEndpoint("loss", l.From); err != nil {
			return err
		}
		if err := checkEndpoint("loss", l.To); err != nil {
			return err
		}
		if l.Rate < 0 || l.Rate > 1 {
			return fmt.Errorf("fault: loss rate %v outside [0,1]", l.Rate)
		}
		if err := l.Window.validate("loss"); err != nil {
			return err
		}
	}
	for _, d := range s.Delays {
		if err := checkEndpoint("delay", d.From); err != nil {
			return err
		}
		if err := checkEndpoint("delay", d.To); err != nil {
			return err
		}
		if d.Extra < 0 {
			return fmt.Errorf("fault: negative delay %v", d.Extra)
		}
		if err := d.Window.validate("delay"); err != nil {
			return err
		}
	}
	for _, c := range s.Corruption {
		if err := checkEndpoint("corruption", c.From); err != nil {
			return err
		}
		if err := checkEndpoint("corruption", c.To); err != nil {
			return err
		}
		if c.Rate < 0 || c.Rate > 1 {
			return fmt.Errorf("fault: corruption rate %v outside [0,1]", c.Rate)
		}
		if err := c.Window.validate("corruption"); err != nil {
			return err
		}
	}
	if s.CheckpointPeriod < 0 {
		return fmt.Errorf("fault: checkpoint period %v < 0", s.CheckpointPeriod)
	}
	return nil
}

func matchLink(ruleFrom, ruleTo, from, to int) bool {
	return (ruleFrom == Any || ruleFrom == from) && (ruleTo == Any || ruleTo == to)
}

// Verdict is the injector's decision for one message.
type Verdict struct {
	// Deliver is false when the message must be dropped.
	Deliver bool
	// Partitioned distinguishes a partition drop (nothing leaves the NIC)
	// from loss/corruption (the bytes crossed the sender's egress and died
	// later). Harnesses charge egress time accordingly.
	Partitioned bool
	// Corrupted marks a drop caused by corruption (delivered bytes failed
	// the receiver's integrity check).
	Corrupted bool
	// ExtraDelay is added to the delivery latency of a delivered message.
	ExtraDelay float64
}

// Stats counts what the injector (and its harness) did to the run.
type Stats struct {
	Partitioned int64 // messages dropped on partitioned links
	Lost        int64 // messages dropped by random loss
	Corrupted   int64 // messages discarded after corruption
	Delayed     int64 // messages delivered with extra delay
	DeadDrops   int64 // messages dropped because the receiver was down
	Crashes     int64 // worker crashes executed
	Restarts    int64 // worker restarts executed
	Joins       int64 // membership joins initiated
	Leaves      int64 // graceful leaves executed
}

// Injector answers per-message fault verdicts for a schedule. It is not
// safe for concurrent use; the simulator calls it from the event loop.
type Injector struct {
	s     *Schedule
	rng   *stats.RNG
	stats Stats
}

// NewInjector compiles a schedule. A nil schedule yields a pass-through
// injector that delivers everything.
func NewInjector(s *Schedule) *Injector {
	seed := uint64(0)
	if s != nil {
		seed = s.Seed
	}
	return &Injector{s: s, rng: stats.NewRNG(seed ^ 0xfa017)}
}

// Message decides the fate of one message on link from->to at time t and
// updates the counters accordingly.
func (in *Injector) Message(from, to int, t float64) Verdict {
	if in.s == nil {
		return Verdict{Deliver: true}
	}
	for _, p := range in.s.Partitions {
		if p.matches(from, to) && p.Contains(t) {
			in.stats.Partitioned++
			return Verdict{Partitioned: true}
		}
	}
	for _, l := range in.s.Loss {
		if matchLink(l.From, l.To, from, to) && l.Contains(t) && in.rng.Float64() < l.Rate {
			in.stats.Lost++
			return Verdict{}
		}
	}
	for _, c := range in.s.Corruption {
		if matchLink(c.From, c.To, from, to) && c.Contains(t) && in.rng.Float64() < c.Rate {
			in.stats.Corrupted++
			return Verdict{Corrupted: true}
		}
	}
	v := Verdict{Deliver: true}
	for _, d := range in.s.Delays {
		if matchLink(d.From, d.To, from, to) && d.Contains(t) {
			v.ExtraDelay += d.Extra
		}
	}
	if v.ExtraDelay > 0 {
		in.stats.Delayed++
	}
	return v
}

// DeadDrop records a message dropped because its receiver was crashed.
func (in *Injector) DeadDrop() { in.stats.DeadDrops++ }

// CrashExecuted records a worker kill performed by the harness.
func (in *Injector) CrashExecuted() { in.stats.Crashes++ }

// RestartExecuted records a worker restart performed by the harness.
func (in *Injector) RestartExecuted() { in.stats.Restarts++ }

// JoinExecuted records a membership join initiated by the harness.
func (in *Injector) JoinExecuted() { in.stats.Joins++ }

// LeaveExecuted records a graceful leave executed by the harness.
func (in *Injector) LeaveExecuted() { in.stats.Leaves++ }

// Crashes returns the schedule's crash list (nil for a nil schedule).
func (in *Injector) Crashes() []Crash {
	if in.s == nil {
		return nil
	}
	return in.s.Crashes
}

// Joins returns the schedule's join list (nil for a nil schedule).
func (in *Injector) Joins() []Join {
	if in.s == nil {
		return nil
	}
	return in.s.Joins
}

// Leaves returns the schedule's leave list (nil for a nil schedule).
func (in *Injector) Leaves() []Leave {
	if in.s == nil {
		return nil
	}
	return in.s.Leaves
}

// CheckpointPeriod returns the schedule's checkpoint period (0 for none).
func (in *Injector) CheckpointPeriod() float64 {
	if in.s == nil {
		return 0
	}
	return in.s.CheckpointPeriod
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }
