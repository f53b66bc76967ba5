package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernels in this package are sequential loops on their caller's goroutine;
// the replica (a worker, a sim replica under evaluation, a serve runner) is
// the unit of parallelism. ParallelReplicas (a batch of replicas, joined
// before it returns) and Slots (one replica step at a time, joined by its
// owner) are the only places model math fans out, under one bound.

// maxWorkers bounds the fan-out; 0 follows GOMAXPROCS at the time of use.
// Tests change it via SetMaxWorkers while other goroutines fan out, so
// access must be atomic.
var maxWorkers atomic.Int64

// bound returns the current fan-out bound.
func bound() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers bounds the number of goroutines ParallelReplicas and a new
// Slots use and returns the previous setting. n < 1 restores the default,
// GOMAXPROCS at the time of use, which is also what a previous setting of 0
// means. Safe to call while replicas run on other goroutines.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 0
	}
	return int(maxWorkers.Swap(int64(n)))
}

// ParallelReplicas runs body(slot, i) for i in [0,n) across up to
// SetMaxWorkers goroutines. Each body must own the data for index i;
// callers merge results in index order afterwards, so output is independent
// of scheduling. slot numbers the goroutine running the body, 0 <= slot <
// min(SetMaxWorkers, n): bodies given the same slot never overlap, so state
// indexed by slot (a scratch model with its own arena) needs no locking.
// A single-worker bound runs inline, in index order, on slot 0.
func ParallelReplicas(n int, body func(slot, i int)) {
	workers := bound()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	claim := func(slot int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(slot, i)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			claim(slot)
		}(w)
	}
	claim(0)
	wg.Wait()
}

// Slots runs replica steps handed over one at a time on up to SetMaxWorkers
// goroutines (the bound when NewSlots ran), each owning one Workspace for
// its whole life: one goroutine per arena, and a slot owns one. Steps run
// in hand-over order on whichever slot is free; Go does not wait for them,
// so a step must own what it writes and signal its own completion to
// whoever joins it. A single-slot bound runs every step inline, inside Go,
// on the one arena. The simulator hands each worker's training step to its
// Slots and lets its event loop run on (DESIGN.md §2).
type Slots struct {
	steps chan func(ws *Workspace)
	wg    sync.WaitGroup
	ws    *Workspace // the inline slot's arena; nil when slots run on goroutines
}

// NewSlots starts the slots. backlog is how many handed-over steps may wait
// for a free slot before Go blocks: the most steps in flight at once.
func NewSlots(backlog int) *Slots {
	k := bound()
	if k <= 1 {
		return &Slots{ws: NewWorkspace()}
	}
	s := &Slots{steps: make(chan func(ws *Workspace), backlog)}
	s.wg.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer s.wg.Done()
			ws := NewWorkspace()
			for step := range s.steps {
				step(ws)
			}
		}()
	}
	return s
}

// Go hands step to a free slot, which runs it on that slot's arena.
func (s *Slots) Go(step func(ws *Workspace)) {
	if s.ws != nil {
		step(s.ws)
		return
	}
	s.steps <- step
}

// Close runs every step already handed over to its end, then stops the
// slots. Go must not be called afterwards.
func (s *Slots) Close() {
	if s.ws != nil {
		return
	}
	close(s.steps)
	s.wg.Wait()
}
