package cluster

import (
	"math"
	"testing"

	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/systems"
	"dlion/internal/wire"
)

// TestSimSendOwnsBorrowedSelections: the simulator delivers the sender's
// *Message after Send has returned, when the sender's next backward pass has
// long overwritten the gradient a Full selection borrows. Send therefore owns
// the selections: receivers apply the values as they were at send time, and
// because the links of one iteration share their selections and Own is
// idempotent, that is one copy per iteration however many links there are.
func TestSimSendOwnsBorrowedSelections(t *testing.T) {
	env := sendEnv(t, tinyConfig(systems.Baseline()).Network)
	models := make([]*nn.Model, len(env.workers)) // identical weights
	for i, w := range env.workers {
		models[i] = w.Model()
	}
	const sender, control = 0, 3 // 1 and 2 receive over the simulated links

	params := models[sender].Params()
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = float32(i%13) - 6.5
		}
	}
	sels := grad.Full{}.Select(1, params, 0)
	if &sels[0].Dense[0] != &params[0].G.Data[0] {
		t.Fatal("Full did not borrow: this test exercises nothing")
	}
	// The control worker is handed a private copy at send time, directly.
	var copied []*grad.Selection
	for _, s := range sels {
		copied = append(copied, &grad.Selection{Var: s.Var, Total: s.Total,
			Dense: append([]float32(nil), s.Dense...)})
	}
	env.workers[control].HandleMessage(&wire.Message{Type: wire.TypeGradient,
		From: sender, To: control, Iter: 1, Selections: copied})

	// One iteration's fan-out, as exchangeGradients does it: every link's
	// message shares the selections.
	env.Send(sender, 1, &wire.Message{Type: wire.TypeGradient, From: sender, To: 1, Iter: 1, Selections: sels})
	owned := &sels[0].Dense[0]
	if owned == &params[0].G.Data[0] {
		t.Fatal("a message scheduled for later delivery still borrows the sender's gradient")
	}
	env.Send(sender, 2, &wire.Message{Type: wire.TypeGradient, From: sender, To: 2, Iter: 1, Selections: sels})
	if &sels[0].Dense[0] != owned {
		t.Fatal("the second link of the iteration copied the gradient again")
	}

	for _, p := range params { // the sender's next backward pass
		for i := range p.G.Data {
			p.G.Data[i] = 1e6
		}
	}
	env.eng.RunAll()

	want := models[control].Weights()
	for _, to := range []int{1, 2} {
		if env.workers[to].Stats().MsgsRecvd != 1 {
			t.Fatalf("worker %d received %d messages", to, env.workers[to].Stats().MsgsRecvd)
		}
		for name, w := range models[to].Weights() {
			for k, v := range w.Data {
				if math.Float32bits(v) != math.Float32bits(want[name].Data[k]) {
					t.Fatalf("worker %d %s[%d] = %v, want %v: applied something other than the gradient at send time",
						to, name, k, v, want[name].Data[k])
				}
			}
		}
	}
	// And the gradient did move the weights at all.
	moved := false
	for name, w := range models[sender].Weights() {
		for k, v := range w.Data {
			moved = moved || v != want[name].Data[k]
		}
	}
	if !moved {
		t.Fatal("the control worker's weights equal the untouched sender's: nothing was applied")
	}
}
