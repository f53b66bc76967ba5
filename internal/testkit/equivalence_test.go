package testkit

import (
	"context"
	"maps"
	"testing"
	"time"

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
// simulator and over the in-proc broker and requires the final weights to
// agree per variable: bit-identical when no float32 reordering occurred,
// tolerance-bounded otherwise. SyncFull + fixed batching pins the gradient
// sequence, so the structural counters must match exactly on both
// substrates — that part has zero tolerance.
func TestSimRealtimeEquivalence(t *testing.T) {
	const steps = 24
	cases := []struct {
		name           string
		n              int
		sparse         bool
		absTol, relTol float64
	}{
		// Dense exchange applies identical gradient sets on both
		// substrates; only apply order differs. At 2 workers there is one
		// ordering per step and drift stays rounding-scale; at 4 workers
		// the per-step reorderings compound chaotically through 24
		// nonlinear training steps (observed max |Δ| ≈ 0.05 over repeated
		// runs; the floor leaves ~2x headroom).
		{"dense-2w", 2, false, 5e-3, 5e-2},
		{"dense-4w", 4, false, 1e-1, 1e-1},
		// Sparse Max-N selection thresholds can flip on order-induced
		// drift, so the bound is looser (observed max |Δ| ≈ 0.027 over
		// repeated runs; the floor leaves ~2x headroom).
		{"sparse-2w", 2, true, 2e-2, 1e-1},
		{"sparse-4w", 4, true, 5e-2, 1e-1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := EquivalenceConfig{N: tc.n, Steps: steps, Seed: 7, Sparse: tc.sparse}
			sim, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget(60*time.Second))
			defer cancel()
			rt, err := RunRealtime(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}

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
				if maps.Equal(lineage.VarHashes(sim.Weights[i]), lineage.VarHashes(rt.Weights[i])) {
					continue // bit-identical, the strongest outcome
				}
				if err := CompareWeights(sim.Weights[i], rt.Weights[i], tc.absTol, tc.relTol); err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
				t.Logf("worker %d: tolerance-bounded agreement, max |Δ| = %.3g",
					i, MaxAbsDiff(sim.Weights[i], rt.Weights[i]))
			}
		})
	}
}

// TestSimRealtimeEquivalenceQuantized reruns the equivalence gate with int8
// wire precision on every link. Quantization is deterministic per gradient,
// so both substrates dequantize the identical code stream wherever apply
// order hasn't drifted the inputs; where it has, individual codes can flip by
// one step — the same failure shape as sparse Max-N threshold flips, hence
// the same tolerance family. The byte-savings counter is a pure function of
// the (pinned) gradient schedule, so it must agree exactly across substrates
// and be nonzero — proving the quantized path actually carried the traffic.
func TestSimRealtimeEquivalenceQuantized(t *testing.T) {
	const steps = 24
	cases := []struct {
		name           string
		n              int
		absTol, relTol float64
	}{
		// Quantization amplifies cross-substrate drift: rounding-scale
		// differences in float addition order can flip an int8 code at a
		// round-half boundary, turning an O(1e-7) divergence into an
		// O(scale) one that then compounds over remaining steps. Observed
		// max |Δ| ≈ 4e-6 (2w) / 8e-2 (4w) over repeated runs; floors
		// leave ~2x headroom. The byte-savings counters above are the
		// exact gate; weights agreement is tolerance-bounded.
		{"i8-2w", 2, 2e-2, 1e-1},
		{"i8-4w", 4, 1.5e-1, 1e-1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := EquivalenceConfig{N: tc.n, Steps: steps, Seed: 7, Quant: grad.PrecI8}
			sim, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget(60*time.Second))
			defer cancel()
			rt, err := RunRealtime(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < tc.n; i++ {
				simSaved := sim.Stats[i].QuantBytesSaved
				rtSaved := rt.Stats[i].QuantBytesSaved
				if simSaved == 0 || simSaved != rtSaved {
					t.Fatalf("worker %d: quant bytes saved sim=%d realtime=%d, want equal and > 0",
						i, simSaved, rtSaved)
				}
				if maps.Equal(lineage.VarHashes(sim.Weights[i]), lineage.VarHashes(rt.Weights[i])) {
					continue
				}
				if err := CompareWeights(sim.Weights[i], rt.Weights[i], tc.absTol, tc.relTol); err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
				t.Logf("worker %d: tolerance-bounded agreement, max |Δ| = %.3g",
					i, MaxAbsDiff(sim.Weights[i], rt.Weights[i]))
			}
		})
	}
}

// TestMixedPrecisionPeers runs three workers that each send at a different
// wire precision (int8, f16, f32) — the interop workload for epoch-safe
// mixed-precision clusters. Every worker must finish the full budget on both
// substrates, the quantizing senders must report byte savings (and the f32
// sender none), and the final weights must agree across substrates within
// the quantized-exchange tolerance.
func TestMixedPrecisionPeers(t *testing.T) {
	const steps = 24
	cfg := EquivalenceConfig{
		N: 3, Steps: steps, Seed: 11,
		QuantMix: []grad.Precision{grad.PrecI8, grad.PrecF16, grad.PrecF32},
	}
	sim, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget(60*time.Second))
	defer cancel()
	rt, err := RunRealtime(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < cfg.N; i++ {
		simSaved := sim.Stats[i].QuantBytesSaved
		rtSaved := rt.Stats[i].QuantBytesSaved
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
		if maps.Equal(lineage.VarHashes(sim.Weights[i]), lineage.VarHashes(rt.Weights[i])) {
			continue
		}
		// Same code-flip amplification argument (and tolerance) as the
		// quantized equivalence cases above; observed max |Δ| ≈ 8e-2.
		if err := CompareWeights(sim.Weights[i], rt.Weights[i], 1.5e-1, 1e-1); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Logf("worker %d: tolerance-bounded agreement, max |Δ| = %.3g",
			i, MaxAbsDiff(sim.Weights[i], rt.Weights[i]))
	}
}
