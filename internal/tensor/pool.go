package tensor

import (
	"sync"
	"sync/atomic"
)

// This file is the kernel scheduler: a persistent pool of helper goroutines
// that heavy kernels shard their outer loops across. The previous
// implementation spawned fresh goroutines on every kernel call; at
// CipherTrainStep's ~20 kernel invocations per iteration that is hundreds of
// goroutine starts per step. Helpers here are started once (lazily, up to
// SetMaxWorkers-1 of them) and then parked on a channel between calls, so a
// kernel dispatch is one pooled task, a few channel sends, and a WaitGroup.
//
// Work is distributed by atomic chunk claiming, not pre-partitioning: each
// participant (the caller plus every enlisted helper) grabs contiguous index
// chunks with a single atomic add until the range is exhausted. Every index
// is executed by exactly one goroutine, and each body(i) owns output index i
// with a fixed internal reduction order, so results are bit-identical at any
// worker count — the contract the conformance harness pins.
//
// indexBody bodies must not call back into parallelRun (no nested kernel
// parallelism): a helper blocked in a nested wait could starve the pool. No
// kernel in this package nests, and layers invoke kernels sequentially.

// indexBody is one parallel loop body. Kernels implement it on a pooled
// argument struct instead of passing closures so that a steady-state kernel
// call allocates nothing.
type indexBody interface {
	index(i int)
}

// kernTask is one parallelRun invocation, shared by the caller and the
// helpers it enlists. Tasks are pooled; the WaitGroup guarantees no helper
// touches the task after the caller's Wait returns.
type kernTask struct {
	body  indexBody
	n     int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup
}

// run claims chunks until the index range is exhausted.
func (t *kernTask) run() {
	body, n, chunk := t.body, t.n, int64(t.chunk)
	for {
		hi := t.next.Add(chunk)
		lo := int(hi - chunk)
		if lo >= n {
			return
		}
		end := int(hi)
		if end > n {
			end = n
		}
		for i := lo; i < end; i++ {
			body.index(i)
		}
	}
}

var (
	taskPool = sync.Pool{New: func() any { return new(kernTask) }}

	// taskCh feeds parked helpers. The buffer only smooths bursts; a full
	// channel is handled by the caller keeping the work for itself.
	taskCh = make(chan *kernTask, 128)

	// helperCount is the number of persistent helpers ever started. Helpers
	// never exit; lowering SetMaxWorkers just enlists fewer per call.
	helperCount atomic.Int64
)

// helperLoop is one persistent pool worker.
func helperLoop() {
	for t := range taskCh {
		t.run()
		t.wg.Done()
	}
}

// ensureHelpers starts persistent helpers until at least want exist.
func ensureHelpers(want int64) {
	for {
		cur := helperCount.Load()
		if cur >= want {
			return
		}
		if helperCount.CompareAndSwap(cur, cur+1) {
			go helperLoop()
		}
	}
}

// parallelRun executes body.index(i) for i in [0,n) across the caller and up
// to maxWorkers-1 pool helpers. Deterministic mode and small ranges run
// inline on the caller.
func parallelRun(n int, body indexBody) {
	workers := int(maxWorkers.Load())
	if deterministic.Load() {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			body.index(i)
		}
		return
	}
	t := taskPool.Get().(*kernTask)
	t.body, t.n = body, n
	// Four chunks per participant balances load without excessive atomics.
	t.chunk = n / (workers * 4)
	if t.chunk < 1 {
		t.chunk = 1
	}
	t.next.Store(0)
	helpers := workers - 1
	ensureHelpers(int64(helpers))
	for i := 0; i < helpers; i++ {
		t.wg.Add(1)
		select {
		case taskCh <- t:
		default:
			// Every helper is busy and the queue is full; keep the rest of
			// the work on the calling goroutine rather than blocking.
			t.wg.Done()
			i = helpers
		}
	}
	t.run()
	t.wg.Wait()
	t.body = nil
	taskPool.Put(t)
}

// seqRange is the trivial indexBody adapter used by Workspace-free helpers
// and tests that need a plain function body. The function value escapes, so
// hot kernels use dedicated pooled job structs instead.
type seqRange struct{ f func(i int) }

func (s *seqRange) index(i int) { s.f(i) }

// parallelFor runs body(i) for i in [0,n) on the pool. It allocates for the
// closure; kernels on the steady-state training path use parallelRun with a
// pooled job struct.
func parallelFor(n int, body func(i int)) {
	parallelRun(n, &seqRange{f: body})
}

// ParallelReplicas runs body(slot, i) for i in [0,n) across up to
// SetMaxWorkers goroutines. Unlike the kernel pool above, bodies MAY invoke
// pooled kernels: the fan-out uses dedicated short-lived goroutines rather
// than pool helpers, so replica-level parallelism (e.g. evaluating many model
// replicas) composes with kernel-level parallelism without the nested-wait
// starvation parallelRun forbids. Each body must own the data for index i;
// callers merge results in index order afterwards, so output is independent
// of scheduling. slot numbers the goroutine running the body, 0 <= slot <
// min(SetMaxWorkers, n): bodies given the same slot never overlap, so state
// indexed by slot (a scratch model with its own arena) needs no locking.
// Deterministic mode and single-worker settings run inline, in index order,
// on slot 0.
func ParallelReplicas(n int, body func(slot, i int)) {
	workers := int(maxWorkers.Load())
	if deterministic.Load() {
		workers = 1
	}
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
