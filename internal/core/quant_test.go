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

// lastPrecision is the wire precision of the last gradient from sent to to
// that env saw (PrecF32 before any).
func lastPrecision(env *fakeEnv, from, to int) grad.Precision {
	for i := len(env.sent) - 1; i >= 0; i-- {
		if m := env.sent[i]; m.Type == wire.TypeGradient && int(m.From) == from && int(m.To) == to && len(m.Selections) > 0 {
			return m.Selections[0].Prec
		}
	}
	return grad.PrecF32
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
	if lastPrecision(env, 0, 1) != grad.PrecI8 {
		t.Fatalf("link precision %v, want int8", lastPrecision(env, 0, 1))
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
			if s.Prec != grad.PrecI8 || s.Raw == nil {
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
		return lastPrecision(env, 0, 1)
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

// TestQuantConfigValidation covers the new rejection cases.
func TestQuantConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"bad precision":   func(c *Config) { c.Quant.Precision = 9 },
		"auto w/o budget": func(c *Config) { c.Quant.Auto = true },
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
	ok.Quant = QuantConfig{Auto: true}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid quant config rejected: %v", err)
	}
}
