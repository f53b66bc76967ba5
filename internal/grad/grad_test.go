package grad

import (
	"math"
	"testing"
	"testing/quick"

	"dlion/internal/nn"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// makeParams builds a small parameter set with the given gradient values.
func makeParams(grads map[string][]float32) []*nn.Param {
	var out []*nn.Param
	// deterministic order: fixed name list
	for _, name := range []string{"a", "b", "c"} {
		g, ok := grads[name]
		if !ok {
			continue
		}
		p := &nn.Param{Name: name,
			W: tensor.New(len(g)),
			G: tensor.FromSlice(append([]float32(nil), g...), len(g))}
		for i := range p.W.Data {
			p.W.Data[i] = 1
		}
		out = append(out, p)
	}
	return out
}

func TestFullSelectsEverything(t *testing.T) {
	ps := makeParams(map[string][]float32{"a": {1, 2, 3}, "b": {0, 0}})
	sels := Full{}.Select(0, ps, 0)
	if len(sels) != 2 {
		t.Fatalf("selections %d", len(sels))
	}
	if TotalCount(sels) != 5 {
		t.Fatalf("count %d", TotalCount(sels))
	}
	dst := make([]float32, 3)
	if err := sels[0].AddTo(dst, 2); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 6 {
		t.Fatalf("AddTo dense: %v", dst)
	}
}

func TestSelectionBytes(t *testing.T) {
	dense := &Selection{Var: "x", Total: 10, Dense: make([]float32, 10)}
	if dense.Bytes() != headerBytes+40 {
		t.Fatalf("dense bytes %d", dense.Bytes())
	}
	sparse := &Selection{Var: "x", Total: 10, Idx: []int32{1, 5}, Val: []float32{1, 2}}
	if sparse.Bytes() != headerBytes+16 {
		t.Fatalf("sparse bytes %d", sparse.Bytes())
	}
}

func TestSelectionAddToErrors(t *testing.T) {
	s := &Selection{Var: "x", Total: 4, Idx: []int32{9}, Val: []float32{1}}
	if err := s.AddTo(make([]float32, 4), 1); err == nil {
		t.Fatal("out-of-range index must error")
	}
	if err := s.AddTo(make([]float32, 3), 1); err == nil {
		t.Fatal("wrong dst length must error")
	}
}

func TestMaxN100SendsAll(t *testing.T) {
	ps := makeParams(map[string][]float32{"a": {0.5, -2, 0.1, 0}})
	sels := NewMaxN(100).Select(0, ps, 0)
	if TotalCount(sels) != 4 {
		t.Fatalf("N=100 must send everything, got %d", TotalCount(sels))
	}
}

func TestMaxNSmallNSendsTop(t *testing.T) {
	// N=10: threshold = 0.9*max. Values within top 10% of range.
	ps := makeParams(map[string][]float32{"a": {1.0, -0.95, 0.5, 0.05}})
	sels := NewMaxN(10).Select(0, ps, 0)
	if TotalCount(sels) != 2 {
		t.Fatalf("want 2 values (1.0 and -0.95), got %d", TotalCount(sels))
	}
	got := map[int32]float32{}
	for k, i := range sels[0].Idx {
		got[i] = sels[0].Val[k]
	}
	if got[0] != 1.0 || got[1] != -0.95 {
		t.Fatalf("wrong values selected: %v", got)
	}
}

func TestMaxNMonotoneInN(t *testing.T) {
	rng := stats.NewRNG(1)
	g := make([]float32, 500)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	ps := makeParams(map[string][]float32{"a": g})
	prev := -1
	for _, n := range []float64{1, 10, 25, 50, 75, 100} {
		c := TotalCount(NewMaxN(n).Select(0, ps, 0))
		if c < prev {
			t.Fatalf("count not monotone in N: %d after %d at N=%v", c, prev, n)
		}
		prev = c
	}
	if prev != 500 {
		t.Fatalf("N=100 must select all, got %d", prev)
	}
}

func TestMaxNPerVariableThresholds(t *testing.T) {
	// Each variable has its own max; selection must be per-variable (§3.3).
	ps := makeParams(map[string][]float32{
		"a": {100, 1, 1, 1}, // max 100: only 100 survives N=50
		"b": {0.2, 0.15, 0.01, 0.01},
	})
	sels := NewMaxN(50).Select(0, ps, 0)
	byVar := map[string]int{}
	for _, s := range sels {
		byVar[s.Var] = s.Count()
	}
	if byVar["a"] != 1 {
		t.Fatalf("var a: %d", byVar["a"])
	}
	if byVar["b"] != 2 { // threshold 0.1: 0.2 and 0.15
		t.Fatalf("var b: %d", byVar["b"])
	}
}

func TestMaxNZeroGradient(t *testing.T) {
	ps := makeParams(map[string][]float32{"a": {0, 0, 0}})
	sels := NewMaxN(50).Select(0, ps, 0)
	// all values equal the max (0), so all are selected; dense fallback
	if TotalCount(sels) != 3 {
		t.Fatalf("zero grad count %d", TotalCount(sels))
	}
}

func TestMaxNDenseFallback(t *testing.T) {
	// When most values are selected, encoding must switch to dense.
	ps := makeParams(map[string][]float32{"a": {1, 1, 1, 1, 1, 1}})
	sels := NewMaxN(100).Select(0, ps, 0)
	if sels[0].Dense == nil {
		t.Fatal("expected dense fallback")
	}
	if sels[0].Bytes() != headerBytes+24 {
		t.Fatalf("bytes %d", sels[0].Bytes())
	}
}

func TestAutoNFitsBudget(t *testing.T) {
	rng := stats.NewRNG(2)
	g := make([]float32, 10000)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	ps := makeParams(map[string][]float32{"a": g})
	m := NewMaxN(100)
	for _, budget := range []int{500, 2000, 10000, 100000} {
		sels := m.Select(0, ps, budget)
		got := TotalBytes(sels)
		// histogram bucketing gives slight overshoot tolerance: one bucket
		slack := budget/10 + 200
		if got > budget+slack {
			t.Fatalf("budget %d exceeded: %d bytes", budget, got)
		}
	}
}

func TestAutoNUnlimitedBudgetSendsAll(t *testing.T) {
	ps := makeParams(map[string][]float32{"a": {1, 2, 3}})
	m := NewMaxN(100)
	sels := m.Select(0, ps, 1<<30)
	if TotalCount(sels) != 3 {
		t.Fatalf("huge budget should send all, got %d", TotalCount(sels))
	}
}

func TestAutoNRespectsMinN(t *testing.T) {
	rng := stats.NewRNG(3)
	g := make([]float32, 5000)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	ps := makeParams(map[string][]float32{"a": g})
	m := NewMaxN(100)
	n := autoN(m, ps, 1) // absurdly small budget
	if n != m.MinN {
		t.Fatalf("AutoN below MinN: %v", n)
	}
}

func TestMaxNBudgetMonotoneProperty(t *testing.T) {
	rng := stats.NewRNG(4)
	g := make([]float32, 2000)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	ps := makeParams(map[string][]float32{"a": g})
	m := NewMaxN(100)
	f := func(b1, b2 uint16) bool {
		lo, hi := int(b1), int(b2)
		if lo > hi {
			lo, hi = hi, lo
		}
		c1 := TotalCount(m.Select(0, ps, lo+100))
		c2 := TotalCount(m.Select(0, ps, hi+100))
		return c1 <= c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGaiaSignificanceAndResidual(t *testing.T) {
	g := NewGaia(1) // 1% of weight (weights are 1) => threshold 0.01
	ps := makeParams(map[string][]float32{"a": {0.005, 0.5}})
	sels := g.Select(0, ps, 0)
	// 0.5 is significant, 0.005 is not
	if TotalCount(sels) != 1 || sels[0].Val[0] != 0.5 {
		t.Fatalf("sels %+v", sels)
	}
	// second iteration: another 0.005 accumulates to 0.01 => significant now
	ps2 := makeParams(map[string][]float32{"a": {0.005, 0}})
	sels2 := g.Select(0, ps2, 0)
	if TotalCount(sels2) != 1 {
		t.Fatalf("residual not accumulated: %+v", sels2)
	}
	if math.Abs(float64(sels2[0].Val[0])-0.01) > 1e-6 {
		t.Fatalf("accumulated value %v", sels2[0].Val[0])
	}
	// after flush, accumulator should be empty
	if pendingValues(g, 0) != 0 {
		t.Fatalf("pending %d", pendingValues(g, 0))
	}
}

// pendingValues counts the residuals Gaia still holds for peer to.
func pendingValues(g *Gaia, to int) int {
	n := 0
	for _, a := range g.acc[to] {
		for _, v := range a {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

func TestGaiaPerPeerState(t *testing.T) {
	g := NewGaia(1)
	ps := makeParams(map[string][]float32{"a": {0.005}})
	g.Select(0, ps, 0)
	// peer 1 has its own accumulator; after one sub-threshold step both
	// peers hold pending residual independently
	g.Select(1, ps, 0)
	if pendingValues(g, 0) == 0 || pendingValues(g, 1) == 0 {
		t.Fatal("per-peer accumulators missing")
	}
}

func TestGaiaNoUpdateLost(t *testing.T) {
	// Sum of everything sent plus pending accumulator equals sum of all
	// gradients fed in (conservation).
	g := NewGaia(5)
	rng := stats.NewRNG(5)
	var fedTotal float64
	var sentTotal float64
	for iter := 0; iter < 20; iter++ {
		vals := make([]float32, 50)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * 0.01)
			fedTotal += float64(vals[i])
		}
		ps := makeParams(map[string][]float32{"a": vals})
		for _, s := range g.Select(0, ps, 0) {
			for _, v := range s.Val {
				sentTotal += float64(v)
			}
		}
	}
	var pending float64
	for _, a := range g.acc[0] {
		for _, v := range a {
			pending += float64(v)
		}
	}
	if math.Abs(fedTotal-(sentTotal+pending)) > 1e-3 {
		t.Fatalf("conservation violated: fed %v, sent+pending %v", fedTotal, sentTotal+pending)
	}
}

func TestAkoRotatesPartitions(t *testing.T) {
	a := NewAko(4)
	ps := makeParams(map[string][]float32{"a": {1, 2, 3, 4, 5, 6, 7, 8}})
	covered := map[int32]bool{}
	for iter := 0; iter < 4; iter++ {
		for _, s := range a.Select(0, ps, 0) {
			if s.Dense != nil {
				for i := range s.Dense {
					covered[int32(i)] = true
				}
			}
			for _, i := range s.Idx {
				covered[i] = true
			}
		}
	}
	if len(covered) != 8 {
		t.Fatalf("P rounds must cover all coordinates, got %d/8", len(covered))
	}
}

func TestAkoAccumulatesUnsent(t *testing.T) {
	a := NewAko(2)
	ps := makeParams(map[string][]float32{"a": {1, 1}})
	// iter 1 sends coord 0 (value 1); coord 1 accumulates
	s1 := a.Select(0, ps, 0)
	if TotalCount(s1) != 1 {
		t.Fatalf("iter1 count %d", TotalCount(s1))
	}
	// iter 2 sends coord 1 which accumulated two iterations: value 2
	s2 := a.Select(0, ps, 0)
	var got float32
	for _, s := range s2 {
		if len(s.Val) > 0 {
			got = s.Val[0]
		}
		if s.Dense != nil {
			t.Fatal("expected sparse for half partition")
		}
	}
	if got != 2 {
		t.Fatalf("unsent accumulation: got %v, want 2", got)
	}
}

func TestAkoConservation(t *testing.T) {
	// Over k*P iterations with constant gradients, everything fed is
	// eventually sent (accumulators drain every P rounds).
	a := NewAko(3)
	ps := makeParams(map[string][]float32{"a": {1, 1, 1, 1, 1, 1}})
	var sent float64
	iters := 9
	for i := 0; i < iters; i++ {
		for _, s := range a.Select(0, ps, 0) {
			if s.Dense != nil {
				for _, v := range s.Dense {
					sent += float64(v)
				}
			}
			for _, v := range s.Val {
				sent += float64(v)
			}
		}
	}
	fed := float64(iters * 6)
	// at most the trailing (P-1) partitions of recent feeds are pending
	if sent > fed || sent < fed-float64(2*6) {
		t.Fatalf("sent %v of fed %v", sent, fed)
	}
}

func TestAkoSpansVariables(t *testing.T) {
	a := NewAko(2)
	ps := makeParams(map[string][]float32{"a": {1, 2}, "b": {3, 4}})
	s1 := a.Select(0, ps, 0)
	// first partition covers the whole of "a" (dense) and none of "b"
	if len(s1) != 1 || s1[0].Var != "a" || s1[0].Dense == nil {
		t.Fatalf("partition 1: %+v", s1)
	}
	s2 := a.Select(0, ps, 0)
	if len(s2) != 1 || s2[0].Var != "b" {
		t.Fatalf("partition 2: %+v", s2)
	}
}

func TestSelectorNamesAndConstructorPanics(t *testing.T) {
	if (Full{}).Name() != "full" || NewMaxN(10).Name() != "maxN" ||
		NewGaia(1).Name() != "gaia" || NewAko(2).Name() != "ako" {
		t.Fatal("selector names")
	}
	for name, fn := range map[string]func(){
		"maxn0":   func() { NewMaxN(0) },
		"maxn101": func() { NewMaxN(101) },
		"gaia0":   func() { NewGaia(0) },
		"ako0":    func() { NewAko(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestApplyEquivalenceFullVsMaxN100(t *testing.T) {
	// Applying Full and MaxN(100) selections must produce identical updates.
	rng := stats.NewRNG(7)
	g := make([]float32, 100)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	ps := makeParams(map[string][]float32{"a": g})
	d1 := make([]float32, 100)
	d2 := make([]float32, 100)
	for _, s := range (Full{}).Select(0, ps, 0) {
		s.AddTo(d1, 1)
	}
	for _, s := range NewMaxN(100).Select(0, ps, 0) {
		s.AddTo(d2, 1)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, d1[i], d2[i])
		}
	}
}
