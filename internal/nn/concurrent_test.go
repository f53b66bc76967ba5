package nn

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// TestConcurrentCheckpointForward exercises the serving contract: a Model
// is single-threaded (Forward mutates layer caches), but checkpoint BYTES
// are immutable, so a trainer may keep training its replica while any
// number of servers restore those bytes into private replicas and run
// Forward concurrently. The trainer emits tagged checkpoints from its own
// goroutine (the event-loop rule); consumers verify round-trip fidelity,
// deterministic inference, and that continued training never mutates
// already-published bytes. Run under -race: any sharing between the
// trainer's replica and the serving replicas is a bug this must catch.
func TestConcurrentCheckpointForward(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 3, 11)
	rng := stats.NewRNG(17)
	x, y := smallBatch(rng, 8, 1, 8, 8, 3)
	xq, _ := smallBatch(rng, 4, 1, 8, 8, 3)

	type version struct {
		iter int64
		ckpt []byte
	}
	const rounds, servers = 12, 3
	feed := make(chan version, rounds)

	// Trainer: its replica is touched by this goroutine only.
	go func() {
		defer close(feed)
		m := spec.Build()
		for i := 1; i <= rounds; i++ {
			for k := 0; k < 5; k++ {
				m.TrainStep(x, y)
				m.ApplySGD(0.05)
			}
			feed <- version{iter: int64(i), ckpt: m.Checkpoint()}
		}
	}()

	var mu sync.Mutex
	var published []version // retained to re-verify after training ends

	var wg sync.WaitGroup
	for s := 0; s < servers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replica := spec.Build()
			witness := spec.Build()
			var lastIter int64
			for v := range feed {
				// Hot-swap ordering: the feed hands out versions in publish
				// order; a consumer must never see the iteration go back.
				if v.iter <= lastIter {
					t.Errorf("version order violated: %d after %d", v.iter, lastIter)
					return
				}
				lastIter = v.iter
				if err := replica.Restore(v.ckpt); err != nil {
					t.Errorf("restore iter %d: %v", v.iter, err)
					return
				}
				// Round trip: restored replica re-checkpoints to the same bytes.
				if !bytes.Equal(replica.Checkpoint(), v.ckpt) {
					t.Errorf("iter %d: checkpoint round trip not byte-identical", v.iter)
					return
				}
				// Deterministic inference: two replicas of the same version
				// agree exactly, even while the trainer keeps mutating its own.
				out := replica.Forward(xq)
				if err := witness.Restore(v.ckpt); err != nil {
					t.Errorf("witness restore: %v", err)
					return
				}
				ref := witness.Forward(xq)
				for i := range out.Data {
					if out.Data[i] != ref.Data[i] {
						t.Errorf("iter %d: concurrent Forward diverged at %d", v.iter, i)
						return
					}
				}
				mu.Lock()
				published = append(published, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Published bytes survived training untouched: every retained version
	// still restores and round-trips after the trainer is done.
	if len(published) != rounds {
		t.Fatalf("consumed %d versions, want %d", len(published), rounds)
	}
	replica := spec.Build()
	for _, v := range published {
		if err := replica.Restore(v.ckpt); err != nil {
			t.Fatalf("post-hoc restore iter %d: %v", v.iter, err)
		}
		if !bytes.Equal(replica.Checkpoint(), v.ckpt) {
			t.Fatalf("iter %d: published bytes mutated", v.iter)
		}
	}
}

// TestConcurrentWorkspaceForward exercises the arena under concurrency: each
// goroutine owns a private replica (and therefore a private Workspace — the
// arena is per-model by contract, DESIGN.md §9) restored from the same
// checkpoint, and runs Forward in a tight loop so every pass recycles the
// previous pass's buffers. Outputs must stay bit-identical to the reference
// on every iteration; under -race, any arena buffer leaking between models
// or a stale recycled buffer influencing results shows up here.
func TestConcurrentWorkspaceForward(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 3, 11)
	rng := stats.NewRNG(23)
	x, _ := smallBatch(rng, 8, 1, 8, 8, 3)

	src := spec.Build()
	ckpt := src.Checkpoint()
	// Copy the reference output: Forward's result aliases arena memory and is
	// only valid until the model's next pass.
	want := append([]float32(nil), src.Forward(x).Data...)

	const goroutines, iters = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := spec.Build()
			if err := m.Restore(ckpt); err != nil {
				t.Errorf("goroutine %d: restore: %v", g, err)
				return
			}
			for it := 0; it < iters; it++ {
				out := m.Forward(x)
				for j := range want {
					if out.Data[j] != want[j] {
						t.Errorf("goroutine %d iter %d: output diverged at %d", g, it, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentReplicasTrainIdentically pins the one thing replicas on
// different goroutines still share inside tensor, the matmul pack-scratch
// pool: four goroutines each train a replica of their own for 20 seeded
// steps at once and must end on the checkpoint bytes one replica reaches
// alone. Under -race, a scratch buffer handed to two replicas shows up here.
func TestConcurrentReplicasTrainIdentically(t *testing.T) {
	spec := CipherSpec(1, 8, 8, 3, 11)
	x, y := smallBatch(stats.NewRNG(29), 8, 1, 8, 8, 3)
	train := func() []byte {
		m := spec.Build()
		for i := 0; i < 20; i++ {
			m.TrainStep(x, y)
			m.ApplySGD(0.05)
		}
		return m.Checkpoint()
	}
	want := train()

	const goroutines = 4
	got := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = train()
		}()
	}
	wg.Wait()
	for g, ckpt := range got {
		if !bytes.Equal(ckpt, want) {
			t.Errorf("goroutine %d: checkpoint differs from the replica trained alone", g)
		}
	}
}

// TestKernelsRunOnCallerGoroutine pins the parallelism rule (DESIGN.md §9):
// a training step and a large matmul start no goroutine, whatever the
// replica fan-out bound is.
func TestKernelsRunOnCallerGoroutine(t *testing.T) {
	m := CipherSpec(1, 16, 16, 10, 1).Build()
	x, y := smallBatch(stats.NewRNG(31), 32, 1, 16, 16, 10)
	a, c := tensor.New(128, 128), tensor.New(128, 128)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	before := runtime.NumGoroutine()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(4))
	m.TrainStep(x, y)
	tensor.MatMul(c, a, a)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("kernels left %d goroutines running, %d before", after, before)
	}
}
