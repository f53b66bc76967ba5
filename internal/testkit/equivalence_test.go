package testkit

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/grad"
	"dlion/internal/lineage"
)

// budget scales wall-clock allowances for the race detector's slowdown.
func budget(d time.Duration) time.Duration {
	if raceEnabled {
		return d * 6
	}
	return d
}

// ledger is the part of a worker's counts that the workload fixes, whatever
// the substrate: every core.Stats field but SyncBlocks, which counts how
// often a worker found a peer's gradient not there yet — when the round's
// gradients land against the local step; TestChurnEquivalence's leaver
// blocks 7 times on the simulator and 5 over the broker in one run — and
// JoinLatency, which is virtual seconds on one substrate and wall seconds
// on the other.
func ledger(s core.Stats) core.Stats {
	s.SyncBlocks, s.JoinLatency = 0, 0
	return s
}

// runBoth runs cfg on the simulator and over the TCP broker and checks what
// every cross-mode case shares: realtime shed no frame, and, under ordered
// apply (no leave), every worker's ledger is the same on both and its final
// weights are bit-identical across the substrates, variable by variable.
// (A leave makes the survivors' counts depend on when its tombstone lands;
// TestChurnEquivalence compares the leaver's send side.)
func runBoth(t *testing.T, cfg EquivalenceConfig) (sim, rt *EquivalenceResult) {
	t.Helper()
	sim, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget(90*time.Second))
	defer cancel()
	rt, err = RunRealtime(ctx, cfg)
	if err != nil {
		t.Fatalf("realtime: %v", err)
	}
	if rt.FifoDrops != 0 {
		t.Fatalf("realtime shed %d frames; every workload must drop zero in-flight messages", rt.FifoDrops)
	}
	if cfg.LeaveAfter > 0 {
		return sim, rt
	}
	for i := range sim.Stats {
		if a, b := ledger(sim.Stats[i]), ledger(rt.Stats[i]); a != b {
			t.Fatalf("worker %d: sim and realtime counts differ:\nsim      %+v\nrealtime %+v", i, a, b)
		}
	}
	for i := range sim.Weights {
		if a, b := lineage.VarHashes(sim.Weights[i]), lineage.VarHashes(rt.Weights[i]); !maps.Equal(a, b) {
			t.Fatalf("worker %d: sim and realtime digests differ: %v vs %v", i, a, b)
		}
	}
	return sim, rt
}

// TestSimDeterminism: the discrete-event simulator must be bit-reproducible
// — two runs of the same seeded workload yield identical per-variable
// weight hashes on every worker.
func TestSimDeterminism(t *testing.T) {
	cfg := EquivalenceConfig{N: 2, Steps: 10, Seed: 42}
	a, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if !maps.Equal(lineage.VarHashes(a.Weights[i]), lineage.VarHashes(b.Weights[i])) {
			t.Fatalf("worker %d: repeated sim runs diverged bitwise", i)
		}
	}
}

// TestSimRealtimeEquivalence trains the same seeded Cipher workload on the
// simulator and over the TCP broker and requires bit-identical final
// weights on every worker. SyncFull + fixed batching pins the gradient
// sequence and ordered apply pins the float32 apply order, so the
// structural counters must match exactly too.
func TestSimRealtimeEquivalence(t *testing.T) {
	const steps = 24
	for _, tc := range []struct {
		name   string
		n      int
		sparse bool
	}{
		{"dense-2w", 2, false},
		{"dense-4w", 4, false},
		{"sparse-2w", 2, true},
		{"sparse-4w", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, rt := runBoth(t, EquivalenceConfig{N: tc.n, Steps: steps, Seed: 7, Sparse: tc.sparse})
			wantMsgs := int64(tc.n-1) * steps
			for i := 0; i < tc.n; i++ {
				if sim.Iters[i] != steps || rt.Iters[i] != steps {
					t.Fatalf("worker %d: iterations sim=%d realtime=%d, want %d",
						i, sim.Iters[i], rt.Iters[i], steps)
				}
				if sim.Stats[i].MsgsRecvd != wantMsgs || rt.Stats[i].MsgsRecvd != wantMsgs {
					t.Fatalf("worker %d: msgs recvd sim=%d realtime=%d, want %d",
						i, sim.Stats[i].MsgsRecvd, rt.Stats[i].MsgsRecvd, wantMsgs)
				}
			}
		})
	}
}

// TestSimRealtimeEquivalenceQuantized reruns the equivalence gate with int8
// wire precision on every link. Quantization is a deterministic function of
// the gradient, so both substrates send the identical code stream and the
// weights stay bit-identical. The byte-savings counter is a pure function of
// the (pinned) gradient schedule, so it must agree exactly across substrates
// and be nonzero — proving the quantized path actually carried the traffic.
func TestSimRealtimeEquivalenceQuantized(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("i8-%dw", n), func(t *testing.T) {
			sim, rt := runBoth(t, EquivalenceConfig{N: n, Steps: 24, Seed: 7, Quant: grad.PrecI8})
			for i := 0; i < n; i++ {
				simSaved, rtSaved := sim.Stats[i].QuantBytesSaved, rt.Stats[i].QuantBytesSaved
				if simSaved == 0 || simSaved != rtSaved {
					t.Fatalf("worker %d: quant bytes saved sim=%d realtime=%d, want equal and > 0",
						i, simSaved, rtSaved)
				}
			}
		})
	}
}

// TestMixedPrecisionPeers runs three workers that each send at a different
// wire precision (int8, f16, f32) — the interop workload for epoch-safe
// mixed-precision clusters. The weights must be bit-identical across
// substrates, the quantizing senders must report byte savings (and the f32
// sender none), exactly equal on both.
func TestMixedPrecisionPeers(t *testing.T) {
	cfg := EquivalenceConfig{
		N: 3, Steps: 24, Seed: 11,
		QuantMix: []grad.Precision{grad.PrecI8, grad.PrecF16, grad.PrecF32},
	}
	sim, rt := runBoth(t, cfg)
	for i := 0; i < cfg.N; i++ {
		simSaved, rtSaved := sim.Stats[i].QuantBytesSaved, rt.Stats[i].QuantBytesSaved
		if simSaved != rtSaved {
			t.Fatalf("worker %d: quant bytes saved sim=%d realtime=%d, want equal", i, simSaved, rtSaved)
		}
		quantizes := cfg.QuantMix[i] != grad.PrecF32
		if quantizes && simSaved == 0 {
			t.Fatalf("worker %d sends %v but saved no bytes", i, cfg.QuantMix[i])
		}
		if !quantizes && simSaved != 0 {
			t.Fatalf("worker %d sends f32 but reports %d bytes saved", i, simSaved)
		}
	}
}

// TestRealtimeReleasesOnError: a run that fails — here on a context that
// expired before it began — still stops its nodes and closes their TCP
// transports, so no receive pump is left redialling a closed server.
func TestRealtimeReleasesOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunRealtime(ctx, EquivalenceConfig{N: 3, Steps: 4, Seed: 1}); err == nil {
		t.Fatal("RunRealtime succeeded on an expired context")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 2 s after the failed run, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
