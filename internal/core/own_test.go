package core

import (
	"math"
	"testing"

	"dlion/internal/grad"
	"dlion/internal/wire"
)

// TestBorrowedSelectionsReachSend: core copies no gradient on the way to
// Env.Send. With the Full selector every selection the env is handed still
// aliases the sender's live gradient tensor, and the links of one iteration
// carry the very same Selections.
func TestBorrowedSelectionsReachSend(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	ws := buildCluster(t, asyncConfig(), env)
	perIter := map[[2]int64][]*grad.Selection{} // (from, iter) -> that iteration's selections
	grads := 0
	env.onSend = func(m *wire.Message) {
		if m.Type != wire.TypeGradient {
			return
		}
		grads++
		params := ws[m.From].model.Params()
		if len(m.Selections) != len(params) {
			t.Fatalf("%d selections for %d variables", len(m.Selections), len(params))
		}
		key := [2]int64{int64(m.From), m.Iter}
		first, later := perIter[key]
		perIter[key] = m.Selections
		for i, s := range m.Selections {
			switch {
			case later && s != first[i]:
				t.Fatalf("worker %d iter %d: links do not share %s", m.From, m.Iter, s.Var)
			case !later && &s.Dense[0] != &params[i].G.Data[0]:
				// (this env owns what it keeps, so only the first link of an
				// iteration can still see the borrow)
				t.Fatalf("worker %d iter %d: %s was copied before Send", m.From, m.Iter, s.Var)
			}
		}
	}
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(5)
	if grads < 12 {
		t.Fatalf("only %d gradient messages sent", grads)
	}
	// The env kept the messages, so it owned them: none follows a gradient.
	for _, m := range env.sent {
		for i, s := range m.Selections {
			if &s.Dense[0] == &ws[m.From].model.Params()[i].G.Data[0] {
				t.Fatalf("a retained message still borrows worker %d's %s", m.From, s.Var)
			}
		}
	}
}

// TestQuantizeOwnsBeforeSend: a quantized link's selections are written in
// place (the dequantized image), so they must have left the gradient tensor
// by then: at Send the gradient still holds its own values, not the image.
func TestQuantizeOwnsBeforeSend(t *testing.T) {
	for _, prec := range []grad.Precision{grad.PrecI8, grad.PrecF16} {
		env := newFakeEnv(2, []float64{1, 1})
		cfg := asyncConfig()
		cfg.Quant = QuantConfig{Precision: prec}
		ws := buildCluster(t, cfg, env)
		checked := 0
		env.onSend = func(m *wire.Message) {
			if m.Type != wire.TypeGradient {
				return
			}
			params := ws[m.From].model.Params()
			for i, s := range m.Selections {
				g := params[i].G.Data
				if s.Prec != prec || &s.Dense[0] == &g[0] {
					t.Fatalf("%v: %s left at %v, aliasing=%v", prec, s.Var, s.Prec, &s.Dense[0] == &g[0])
				}
				lossy := false
				for k, v := range s.Dense {
					lossy = lossy || math.Float32bits(v) != math.Float32bits(g[k])
				}
				if len(g) > 8 && !lossy {
					t.Fatalf("%v: %s's gradient equals its dequantized image: Quantize wrote through", prec, s.Var)
				}
				checked++
			}
		}
		for _, w := range ws {
			w.Start()
		}
		env.eng.Run(4)
		if checked == 0 {
			t.Fatalf("%v: no selections seen", prec)
		}
	}
}
