package nn_test

// Bit-identity gates for the two ways cluster.Run's replicas differ from
// independent Spec.Build calls: they are cloned from one initialization, and
// they share one activation arena. Neither may change a single weight or
// gradient bit. (External test package: lineage imports nn.)

import (
	"testing"

	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

var replicaSpecs = []nn.Spec{
	nn.CipherSpec(1, 8, 8, 3, 21),
	nn.MobileNetLiteSpec(3, 16, 16, 5, 22),
}

func randomBatch(rng *stats.RNG, s nn.Spec, b int) (*tensor.Tensor, []int) {
	x := tensor.New(b, s.Channels, s.Height, s.Width)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	y := make([]int, b)
	for i := range y {
		y[i] = rng.Intn(s.Classes)
	}
	return x, y
}

// sameBits compares two tensors by the digest over their exact float32 bits,
// the repo's bit-identity regime.
func sameBits(a, b *tensor.Tensor) bool {
	return lineage.TensorHash(a) == lineage.TensorHash(b)
}

// TestReplicasMatchIndependentBuilds: cloning replica 0 gives every replica
// the digest an independent seeded Build has, and the zero-built shell has
// the same parameter count with no weight set.
func TestReplicasMatchIndependentBuilds(t *testing.T) {
	for _, spec := range replicaSpecs {
		want := lineage.ModelHash(spec.Build())
		for i, m := range spec.Replicas(3) {
			if got := lineage.ModelHash(m); got != want {
				t.Fatalf("%s replica %d digest %s, independent Build %s", spec.Kind, i, got, want)
			}
		}
		zero := spec.BuildZero()
		if zero.NumParams() != spec.Build().NumParams() {
			t.Fatalf("%s: BuildZero has %d params, Build %d", spec.Kind, zero.NumParams(), spec.Build().NumParams())
		}
		for _, p := range zero.Params() {
			if p.W.MaxAbs() != 0 {
				t.Fatalf("%s: BuildZero left %s initialized", spec.Kind, p.Name)
			}
		}
		spec.WireBytes = 0
		if got, want := spec.ExchangeBytes(), spec.Build().SizeBytes(); got != want {
			t.Fatalf("%s: ExchangeBytes %d without WireBytes, model is %d bytes", spec.Kind, got, want)
		}
	}
}

// TestSharedArenaGradientsBitIdentical steps k replicas that share one arena
// in an interleaved, rotating order on different batches of different sizes,
// next to k private-arena replicas fed the same batches: loss, accuracy and
// every gradient buffer must agree bit for bit through several SGD rounds,
// so which recycled buffer a layer draws can never reach a value. Between
// steps, one shared replica's Forward result is held across the others'
// TrainSteps and must come through untouched — the arena rule that Forward
// output stays valid until that model's own next pass.
func TestSharedArenaGradientsBitIdentical(t *testing.T) {
	const k, rounds = 3, 4
	for _, spec := range replicaSpecs {
		rng := stats.NewRNG(spec.Seed + 100)
		shared := spec.Replicas(k)
		private := make([]*nn.Model, k)
		for i := range private {
			private[i] = spec.Build()
		}
		xq, _ := randomBatch(rng, spec, 2)
		for r := 0; r < rounds; r++ {
			holder := r % k
			held := shared[holder].Forward(xq)
			want := held.Clone()
			for j := 1; j < k; j++ { // every replica but holder, rotating
				i := (holder + j) % k
				x, y := randomBatch(rng, spec, 2+3*i+r)
				ls, as := shared[i].TrainStep(x, y)
				lp, ap := private[i].TrainStep(x, y)
				if ls != lp || as != ap {
					t.Fatalf("%s round %d replica %d: loss/acc %v/%v shared, %v/%v private",
						spec.Kind, r, i, ls, as, lp, ap)
				}
				sp, pp := shared[i].Params(), private[i].Params()
				for v := range sp {
					if !sameBits(sp[v].G, pp[v].G) {
						t.Fatalf("%s round %d replica %d: gradient %s differs between shared and private arenas",
							spec.Kind, r, i, sp[v].Name)
					}
				}
				shared[i].ApplySGD(0.05)
				private[i].ApplySGD(0.05)
			}
			if !sameBits(held, want) {
				t.Fatalf("%s round %d: replica %d's Forward output was overwritten by its neighbours' TrainSteps",
					spec.Kind, r, holder)
			}
		}
		for i := range shared {
			if a, b := lineage.ModelHash(shared[i]), lineage.ModelHash(private[i]); a != b {
				t.Fatalf("%s replica %d: final digest %s shared, %s private", spec.Kind, i, a, b)
			}
		}
	}
}

// TestTrainStepHoldsNoArenaBuffer pins the rule that makes sharing legal:
// whatever a TrainStep draws from the arena — activations, im2col columns,
// input gradients, the loss gradient — is back before it returns, also when
// a Forward's buffers were still held going in.
func TestTrainStepHoldsNoArenaBuffer(t *testing.T) {
	for _, spec := range replicaSpecs {
		m := spec.Build()
		x, y := randomBatch(stats.NewRNG(3), spec, 6)
		_, _, idle := tensor.WorkspaceStats()
		m.Forward(x)
		if _, _, held := tensor.WorkspaceStats(); held <= idle {
			t.Fatalf("%s: Forward holds no arena bytes; the check below would be vacuous", spec.Kind)
		}
		m.TrainStep(x, y)
		if _, _, after := tensor.WorkspaceStats(); after != idle {
			t.Fatalf("%s: %d arena bytes still lent out after TrainStep", spec.Kind, after-idle)
		}
	}
}
