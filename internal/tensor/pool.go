package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernels in this package are sequential loops on their caller's goroutine;
// the replica (a worker, a sim replica under evaluation, a serve runner) is
// the unit of parallelism, and ParallelReplicas is the one fan-out primitive.

// maxWorkers bounds ParallelReplicas' fan-out. Tests lower it via
// SetMaxWorkers while other goroutines fan out, so access must be atomic.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetMaxWorkers bounds the number of goroutines ParallelReplicas uses and
// returns the previous bound. n < 1 is treated as 1. Safe to call while
// replicas run on other goroutines.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
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
	workers := int(maxWorkers.Load())
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
