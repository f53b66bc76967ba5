package core

import (
	"testing"

	"dlion/internal/grad"
	"dlion/internal/wire"
)

// modelDenseBytes computes the full dense f32 exchange size of the test
// model — the auto policy's reference point.
func modelDenseBytes(w *Worker) int {
	totals := []int{}
	for _, p := range w.model.Params() {
		totals = append(totals, p.G.Len())
	}
	return grad.DenseBytes(totals)
}

// TestQuantFixedPrecision: with a fixed int8 configuration every gradient
// selection leaves quantized, the savings counter advances, and training
// still progresses.
func TestQuantFixedPrecision(t *testing.T) {
	env := newFakeEnv(2, []float64{1, 1})
	cfg := asyncConfig()
	cfg.Quant = QuantConfig{Precision: grad.PrecI8}
	ws := buildCluster(t, cfg, env)
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(10)

	if ws[0].Iter() < 5 {
		t.Fatalf("worker 0 made only %d iterations", ws[0].Iter())
	}
	if ws[0].LastPrecision(1) != grad.PrecI8 {
		t.Fatalf("link precision %v, want int8", ws[0].LastPrecision(1))
	}
	saved := ws[0].Stats().QuantBytesSaved
	if saved <= 0 {
		t.Fatal("QuantBytesSaved did not advance")
	}
	// Full selector + int8: savings are 3 bytes per value sent.
	if want := 3 * ws[0].Stats().GradValuesSent; saved != want {
		t.Fatalf("saved %d bytes, want %d (3B per value)", saved, want)
	}
	quantFrames := 0
	for _, m := range env.sent {
		if m.Type != wire.TypeGradient {
			continue
		}
		for _, s := range m.Selections {
			if s.Prec != grad.PrecI8 || s.Q8 == nil {
				t.Fatalf("unquantized selection %q left worker %d", s.Var, m.From)
			}
			quantFrames++
		}
	}
	if quantFrames == 0 {
		t.Fatal("no quantized selections on the wire")
	}
}

// TestQuantAutoPrecision pins the auto policy's thresholds: budget >= full
// dense f32 keeps f32, half budget drops to f16, anything lower to int8.
func TestQuantAutoPrecision(t *testing.T) {
	for _, wallPaid := range []bool{false, true} {
		testQuantAutoPrecision(t, wallPaid)
	}
}

// testQuantAutoPrecision runs the thresholds on one substrate's time
// contract: the budget behind the policy is bw · charged seconds either way,
// so with the wall time already paid (wait 0) the choices are the same.
func testQuantAutoPrecision(t *testing.T, wallPaid bool) {
	run := func(bwMbps float64) grad.Precision {
		env := newFakeEnv(2, []float64{1, 1})
		env.wallPaid = wallPaid
		env.bw = bwMbps
		cfg := asyncConfig()
		cfg.MaxIters = 3 // at wait 0 virtual time stands still; the budget ends the run
		cfg.LinkBudget = true
		cfg.Quant = QuantConfig{Auto: true}
		ws := buildCluster(t, cfg, env)
		for _, w := range ws {
			w.Start()
		}
		env.eng.Run(4)
		return ws[0].LastPrecision(1)
	}

	// The test model's full dense exchange is ~400 KB; per-link budget is
	// bw·1e6/8 · iterSec(=1) with fan-out 1.
	env := newFakeEnv(2, []float64{1, 1})
	full := modelDenseBytes(buildCluster(t, asyncConfig(), env)[0])

	f32BW := float64(full+1000) * 8 / 1e6      // budget just above full
	f16BW := float64(full) / 2 * 1.2 * 8 / 1e6 // between full/2 and full
	i8BW := float64(full) / 4 * 8 / 1e6        // below full/2
	if got := run(f32BW); got != grad.PrecF32 {
		t.Fatalf("wallPaid=%v: ample budget chose %v, want f32", wallPaid, got)
	}
	if got := run(f16BW); got != grad.PrecF16 {
		t.Fatalf("wallPaid=%v: half budget chose %v, want f16", wallPaid, got)
	}
	if got := run(i8BW); got != grad.PrecI8 {
		t.Fatalf("wallPaid=%v: tight budget chose %v, want int8", wallPaid, got)
	}
}

// TestQuantPeerMaskClamp: the sender clamps its chosen precision by the
// accept mask the peer advertised — int8 falls back to f16 for a peer that
// only negotiated f16, and to f32 for a peer accepting nothing reduced.
func TestQuantPeerMaskClamp(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	cfg := asyncConfig()
	cfg.Quant = QuantConfig{Precision: grad.PrecI8}
	ws := buildCluster(t, cfg, env)
	// As if peers had advertised these masks during a handshake.
	ws[0].peers[1].quant = grad.MaskF16
	for _, w := range ws {
		w.Start()
	}
	env.eng.Run(5)

	if got := ws[0].LastPrecision(1); got != grad.PrecF16 {
		t.Fatalf("f16-only peer got %v", got)
	}
	if got := ws[0].LastPrecision(2); got != grad.PrecI8 {
		t.Fatalf("unconstrained peer got %v, want int8", got)
	}
	if got := ws[0].PeerAcceptMask(2); got != grad.MaskAll {
		t.Fatalf("never-handshaken peer mask %v, want accept-all", got)
	}
}

// TestQuantMaskPropagatesThroughJoin: a joiner advertising a restricted
// accept mask in its HELLO is never sent int8 by the sponsor, and the
// joiner learns the sponsor's mask from the WELCOME.
func TestQuantMaskPropagatesThroughJoin(t *testing.T) {
	env := newFakeEnv(3, []float64{1, 1, 1})
	founder := asyncConfig()
	founder.Quant = QuantConfig{Precision: grad.PrecI8}
	founder.Membership.InitialMembers = []int{0, 1}
	joiner := asyncConfig()
	joiner.Quant = QuantConfig{Precision: grad.PrecI8, Accept: grad.MaskF16}
	joiner.Membership = MembershipConfig{Join: true, Sponsor: 0}
	ws := buildClusterCfgs(t, []Config{founder, founder, joiner}, env)
	ws[0].Start()
	ws[1].Start()
	env.eng.Run(3)
	ws[2].Start()
	env.eng.Run(10)

	if ws[2].State() != StateActive {
		t.Fatalf("joiner state %v", ws[2].State())
	}
	if got := ws[0].PeerAcceptMask(2); got != grad.MaskF16 {
		t.Fatalf("sponsor learned mask %v, want f16-only", got)
	}
	if got := ws[0].LastPrecision(2); got != grad.PrecF16 {
		t.Fatalf("sponsor sent joiner %v, want f16", got)
	}
	// The joiner learned the sponsor's (default accept-all) mask and may
	// keep sending int8.
	if got := ws[2].LastPrecision(0); got != grad.PrecI8 {
		t.Fatalf("joiner sent sponsor %v, want int8", got)
	}
}

// TestQuantConfigValidation covers the new rejection cases.
func TestQuantConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"bad precision":   func(c *Config) { c.Quant.Precision = 9 },
		"auto w/o budget": func(c *Config) { c.Quant.Auto = true },
		"bad mask":        func(c *Config) { c.Quant.Accept = 0x7f },
	}
	for name, mutate := range cases {
		c := asyncConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
	ok := asyncConfig()
	ok.LinkBudget = true
	ok.Quant = QuantConfig{Auto: true, Accept: grad.MaskAll}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid quant config rejected: %v", err)
	}
}
