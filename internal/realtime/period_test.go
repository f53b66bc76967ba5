package realtime

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

// TestIterationPeriodIsItsCompute is the runtime half of the time contract
// (DESIGN.md §2): a node's iterations run back to back, so the wall time from
// its first completed iteration to its last is about the compute it was
// charged for them — select, encode, apply and the peer's lock-step skew on
// top, never a second sleep as long as the step. Both sides of the ratio are
// wall time on the same box, so a slow or loaded machine moves them together.
// A runtime that waits out the charged duration again reads ≥ 2.0 here.
func TestIterationPeriodIsItsCompute(t *testing.T) {
	iters := int64(40)
	if raceEnabled {
		iters = 16 // a step is ≈ 15× longer under the detector; same resolution from fewer
	}
	const (
		lbs      = 32
		maxRatio = 1.5
		minStep  = 5e-3 // seconds; below this the fixed per-iteration costs dominate
	)
	dc := data.Config{Name: "period", NumClasses: 10, Train: 512, Test: 32,
		Channels: 1, Height: 16, Width: 16, Noise: 0.9, Jitter: 2, Bumps: 4, Seed: 3}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			b := queue.NewBroker()
			defer b.Close()
			shards, err := data.Partition(train, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			sys := core.Config{Name: "period", LearningRate: 0.05,
				NewSelector:  func() grad.Selector { return grad.Full{} },
				Batch:        core.BatchConfig{InitialLBS: lbs},
				Sync:         core.SyncConfig{Mode: core.SyncFull},
				MaxIters:     iters,
				OrderedApply: true,
			}
			sinks := make([]*obs.WorkerObs, n)
			for i := range sinks {
				sinks[i] = obs.NewWorkerObs()
			}
			g, err := NewGroup(n, func(i int) (Config, error) {
				return Config{ID: i, N: n, System: sys, Spec: nn.CipherSpec(1, 16, 16, 10, 5),
					Shard: shards[i], Transport: NewBrokerTransport(b, i, ""), Obs: sinks[i]}, nil
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget(30*time.Second))
			ran := make(chan struct{})
			go func() { defer close(ran); _ = g.Run(ctx) }()
			defer func() { cancel(); <-ran }()

			// One watcher per node samples (iteration, charged compute, wall
			// clock) between events. Completion of iteration k charges its
			// compute and bumps Iter in the same event, so the two are read
			// consistently; the 1 ms poll bounds how late either end of the
			// interval is seen, against a span of ≥ 15 steps of ≥ 5 ms.
			type mark struct {
				iter    int64
				charged float64
				at      time.Time
			}
			first, last := make([]mark, n), make([]mark, n)
			var watch sync.WaitGroup
			for i := 0; i < n; i++ {
				watch.Add(1)
				go func(i int) {
					defer watch.Done()
					for last[i].iter < iters {
						var m mark
						err := ctx.Err() // a stopped group inspects directly: never an error
						if err == nil {
							err = g.Inspect(ctx, i, func(w *core.Worker) {
								m = mark{w.Iter(), sinks[i].PhaseSeconds(obs.PhaseCompute), time.Now()}
							})
						}
						if err != nil {
							t.Errorf("node %d never finished: %v", i, err)
							return
						}
						if m.iter >= 1 && first[i].iter == 0 {
							first[i] = m
						}
						last[i] = m
						time.Sleep(time.Millisecond)
					}
				}(i)
			}
			watch.Wait()
			if t.Failed() {
				return
			}
			for i := 0; i < n; i++ {
				steps := float64(last[i].iter - first[i].iter)
				charged := last[i].charged - first[i].charged
				wall := last[i].at.Sub(first[i].at).Seconds()
				if steps < float64(iters/2) {
					t.Fatalf("node %d: watcher saw only %v iterations", i, steps)
				}
				if charged/steps < minStep {
					t.Skipf("node %d: a step is %.2f ms here, too short to compare against", i, 1e3*charged/steps)
				}
				ratio := wall / charged
				t.Logf("node %d: %v iterations, %.1f ms charged and %.1f ms of wall time each: ratio %.2f",
					i, steps, 1e3*charged/steps, 1e3*wall/steps, ratio)
				if ratio > maxRatio {
					t.Errorf("node %d: iteration period is %.2f × its charged compute, want ≤ %.1f", i, ratio, maxRatio)
				}
			}
		})
	}
}
