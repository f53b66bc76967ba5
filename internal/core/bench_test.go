package core

import (
	"fmt"
	"testing"

	"dlion/internal/bufpool"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/wire"
)

// signalOnly selects nothing, so every gradient message is the empty
// iteration signal (what Gaia sends below its threshold).
type signalOnly struct{}

func (signalOnly) Name() string                                   { return "signal-only" }
func (signalOnly) Select(int, []*nn.Param, int) []*grad.Selection { return nil }

// BenchmarkWorkerRound is core's own cost per training round at cluster
// size n: one completeIteration (local update, then the gradient exchange
// to n-1 peers) and the n-1 peer gradients that complete the round, each
// re-evaluating the SyncFull barrier. Model math is left out so the number
// is the peer bookkeeping's: the forward/backward pass runs once, in
// set-up, and gradients in both directions are the empty signal. What
// remains of the model is the local ApplySGD, the same at every n.
func BenchmarkWorkerRound(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			env := newFakeEnv(n, make([]float64, n))
			for p := 1; p < n; p++ {
				env.dropTo[p] = true // only worker 0 exists
			}
			cfg := asyncConfig()
			cfg.NewSelector = func() grad.Selector { return signalOnly{} }
			cfg.Sync.Mode = SyncFull
			cfg.LinkBudget = true
			cfg.MaxIters = 1 // the timed rounds are driven by hand, below
			tr, _, err := data.Generate(data.Config{Name: "b", NumClasses: 3, Train: 120, Test: 30,
				Channels: 1, Height: 8, Width: 8, Noise: 0.3, Bumps: 3, Seed: 4})
			if err != nil {
				b.Fatal(err)
			}
			shards, err := data.Partition(tr, 1, 5)
			if err != nil {
				b.Fatal(err)
			}
			w, err := New(0, cfg, nn.CipherSpec(1, 8, 8, 3, 77).Build(), shards[0], env)
			if err != nil {
				b.Fatal(err)
			}
			w.Start()
			inbound := make([]*wire.Message, 0, n-1)
			for p := 1; p < n; p++ {
				inbound = append(inbound, &wire.Message{Type: wire.TypeGradient,
					From: int32(p), To: 0, LBS: int32(w.lbs)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.sent = env.sent[:0]
				w.completeIteration()
				for _, m := range inbound {
					m.Iter = w.iter
					w.HandleMessage(m)
				}
				if w.waitingSync || len(env.sent) != n-1 {
					b.Fatalf("round %d: %d gradients sent, still blocked: %v", w.iter, len(env.sent), w.waitingSync)
				}
			}
		})
	}
}

// encodingEnv sends the way realtime's realEnv does: the message is encoded
// into a recycled frame before Send returns and nothing of it is kept, so
// its selections may go on borrowing the gradient.
type encodingEnv struct {
	*fakeEnv
	frameLen int
}

func (e *encodingEnv) Send(_, _ int, m *wire.Message) {
	frame := wire.Encode(m)
	e.frameLen = len(frame)
	bufpool.Bytes.Put(frame)
}

// BenchmarkExchangeDenseRealEnv is the sender's half of a dense real-mode
// iteration at the repository benchmark's model (train_wire: Cipher 16×16,
// a 1.37 MB frame): Full selection, message, encode. B/op is what the
// sender allocates per iteration beside the recycled frame; it read one
// frame (the selection's copy of the gradient) until selections borrowed.
func BenchmarkExchangeDenseRealEnv(b *testing.B) {
	env := &encodingEnv{fakeEnv: newFakeEnv(2, []float64{1, 1})}
	tr, _, err := data.Generate(data.Config{Name: "b", NumClasses: 10, Train: 40, Test: 10,
		Channels: 1, Height: 16, Width: 16, Noise: 0.3, Bumps: 3, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	shards, err := data.Partition(tr, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(0, asyncConfig(), nn.CipherSpec(1, 16, 16, 10, 77).Build(), shards[0], env)
	if err != nil {
		b.Fatal(err)
	}
	w.Start() // one backward pass: the gradient tensors hold values
	w.exchangeGradients()
	b.SetBytes(int64(env.frameLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.exchangeGradients()
	}
}
