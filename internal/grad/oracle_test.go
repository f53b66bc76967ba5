package grad

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dlion/internal/nn"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// The selection oracle: Max-N as it stood before magnitudes went branch-free
// and dense selections started borrowing, kept verbatim (sign-testing abs,
// tensor.MaxAbs's old loop, a copying dense fallback, one walk for the max
// in AutoN and another in SelectN). Select must stay payload-for-payload
// identical to it.

func refAbs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func refMaxAbs(g []float32) float32 {
	var m float32
	for _, v := range g {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func refSelectVariable(p *nn.Param, frac float64) *Selection {
	g := p.G.Data
	maxAbs := refMaxAbs(g)
	thresh := float32(frac) * maxAbs
	count := 0
	for _, v := range g {
		if refAbs32(v) >= thresh {
			count++
		}
	}
	if count == len(g) {
		d := make([]float32, len(g))
		copy(d, g)
		return &Selection{Var: p.Name, Total: len(g), Dense: d}
	}
	sel := &Selection{Var: p.Name, Total: len(g),
		Idx: make([]int32, 0, count), Val: make([]float32, 0, count)}
	for i, v := range g {
		if refAbs32(v) >= thresh {
			sel.Idx = append(sel.Idx, int32(i))
			sel.Val = append(sel.Val, v)
		}
	}
	return sel
}

// refHistBuild fills h the way histogram.build did (bytesAtN, which reads
// only the suffix sums and lengths, is unchanged and shared).
func refHistBuild(h *histogram, params []*nn.Param) {
	const buckets = histBuckets
	h.varLens = make([]int, len(params))
	h.cumul = nil
	for vi, p := range params {
		counts := make([]int, buckets)
		g := p.G.Data
		h.varLens[vi] = len(g)
		maxAbs := refMaxAbs(g)
		if maxAbs == 0 {
			counts[buckets-1] = len(g)
		} else {
			inv := float64(buckets) / float64(maxAbs)
			for _, v := range g {
				k := int(float64(refAbs32(v)) * inv)
				if k >= buckets {
					k = buckets - 1
				}
				counts[k]++
			}
		}
		cum := make([]int, buckets+1)
		for k := buckets - 1; k >= 0; k-- {
			cum[k] = cum[k+1] + counts[k]
		}
		h.cumul = append(h.cumul, cum...)
	}
}

func refAutoN(minN float64, params []*nn.Param, budgetBytes int) float64 {
	var h histogram
	refHistBuild(&h, params)
	lo, hi := minN, 100.0
	if h.bytesAtN(hi) <= budgetBytes {
		return hi
	}
	if h.bytesAtN(lo) > budgetBytes {
		return lo
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if h.bytesAtN(mid) <= budgetBytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// autoN is the N that Select picks under a positive budget.
func autoN(m *MaxN, params []*nn.Param, budgetBytes int) float64 {
	m.hist.maxes(params)
	m.hist.build(params)
	defer m.hist.release()
	return m.hist.autoN(m.MinN, budgetBytes)
}

// refSelectN is SelectN as it stood.
func refSelectN(m *MaxN, params []*nn.Param, n float64) []*Selection {
	if n <= 0 {
		n = m.MinN
	}
	if n > 100 {
		n = 100
	}
	out := make([]*Selection, 0, len(params))
	for _, p := range params {
		out = append(out, refSelectVariable(p, 1-n/100))
	}
	return out
}

// refSelect is Select as it stood. Under a budget the old histogram indexed
// its buckets with int(NaN) whenever a gradient held a NaN or an infinity
// (platform-defined; out of range on amd64), so there ok reports whether the
// reference survived; the selection is then taken at the N the code under
// test chose, which holds it to the old per-variable rule all the same.
func refSelect(m *MaxN, params []*nn.Param, budgetBytes int, gotN float64) (sels []*Selection, ok bool) {
	if budgetBytes <= 0 {
		return refSelectN(m, params, m.N), true
	}
	n, ok := gotN, true
	func() {
		defer func() { ok = recover() == nil }()
		n = refAutoN(m.MinN, params, budgetBytes)
	}()
	if !ok {
		n = gotN
	}
	return refSelectN(m, params, n), ok
}

func finite(params []*nn.Param) bool {
	for _, p := range params {
		for _, v := range p.G.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// oracleGradients are the inputs the comparison runs on: seeded normal
// gradients of several sizes, and the values a magnitude rewrite could get
// wrong: both zeros, NaN, infinities, subnormals, ties, a single element.
func oracleGradients() map[string][]float32 {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(0xffc00001)
	inf := float32(math.Inf(1))
	sub := math.Float32frombits(1) // smallest subnormal
	out := map[string][]float32{
		"all zero":       make([]float32, 33),
		"all -0":         {negZero, negZero, negZero},
		"zeros mixed":    {0, negZero, 0, negZero, negZero},
		"zeros and one":  {negZero, 0, 1, negZero, -1, 0},
		"all equal":      {0.25, 0.25, 0.25, 0.25},
		"equal magnitud": {-0.5, 0.5, -0.5, 0.5, -0.5},
		"single spike":   append(make([]float32, 40), 7),
		"negative spike": append(make([]float32, 40), -7),
		"nan":            {1, nan, -2, 0.5, negNaN, 0.1},
		"all nan":        {nan, negNaN, nan},
		"inf":            {1, inf, -2, 0.5},
		"-inf":           {1, -inf, -2, 0.5, inf},
		"inf and nan":    {inf, nan, -inf, 3},
		"subnormals":     {sub, -sub, 2 * sub, -3 * sub, 0, negZero},
		"sub and normal": {sub, -1e-30, 1e-38, -sub, 1},
		"extremes":       {math.MaxFloat32, -math.MaxFloat32, 1, -1, math.SmallestNonzeroFloat32},
		"length 1":       {-3},
		"length 1 zero":  {negZero},
		"length 1 nan":   {nan},
	}
	for _, n := range []int{2, 17, 512, 4099} {
		rng := stats.NewRNG(uint64(n))
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		out[fmt.Sprintf("normal %d", n)] = g
		// the same with exact zeros of both signs sprinkled in
		z := append([]float32(nil), g...)
		for i := 0; i < n; i += 3 {
			z[i] = negZero
			if i%2 == 0 {
				z[i] = 0
			}
		}
		out[fmt.Sprintf("normal %d with zeros", n)] = z
	}
	return out
}

func oracleParams(grads ...[]float32) []*nn.Param {
	out := make([]*nn.Param, len(grads))
	for i, g := range grads {
		g = append([]float32(nil), g...)
		out[i] = &nn.Param{Name: fmt.Sprintf("v%d", i), W: tensor.New(len(g)), G: tensor.FromSlice(g, len(g))}
	}
	return out
}

// diffSelections reports the first payload difference, comparing floats by
// their bits (a NaN must stay the same NaN, a -0 a -0).
func diffSelections(got, want []*Selection) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d selections, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		switch {
		case g.Var != w.Var || g.Total != w.Total:
			return fmt.Sprintf("%s: var/total %s/%d, want %s/%d", w.Var, g.Var, g.Total, w.Var, w.Total)
		case (g.Dense == nil) != (w.Dense == nil) || !sameBits(g.Dense, w.Dense):
			return fmt.Sprintf("%s: Dense differs (%d vs %d values)", w.Var, len(g.Dense), len(w.Dense))
		case !sameBits(g.Val, w.Val):
			return fmt.Sprintf("%s: Val differs (%d vs %d values)", w.Var, len(g.Val), len(w.Val))
		case fmt.Sprint(g.Idx) != fmt.Sprint(w.Idx):
			return fmt.Sprintf("%s: Idx %v, want %v", w.Var, g.Idx, w.Idx)
		case cap(g.Idx) != cap(w.Idx) || cap(g.Val) != cap(w.Val):
			return fmt.Sprintf("%s: Idx/Val capacity %d/%d, want %d/%d (allocated at exactly count)",
				w.Var, cap(g.Idx), cap(g.Val), cap(w.Idx), cap(w.Val))
		case g.Prec != w.Prec || g.Zero != w.Zero || math.Float32bits(g.Scale) != math.Float32bits(w.Scale):
			return fmt.Sprintf("%s: prec/scale/zero %v/%v/%d, want %v/%v/%d", w.Var,
				g.Prec, g.Scale, g.Zero, w.Prec, w.Scale, w.Zero)
		case !bytes.Equal(g.Raw, w.Raw) || (g.Raw == nil) != (w.Raw == nil):
			return fmt.Sprintf("%s: Raw differs", w.Var)
		case g.Bytes() != w.Bytes():
			return fmt.Sprintf("%s: %d bytes, want %d", w.Var, g.Bytes(), w.Bytes())
		}
	}
	return ""
}

// TestMaxNMatchesOracle: at fixed N and under budgets, at every precision,
// Select returns what the pre-rewrite code returned, and leaves the gradient
// as it found it.
func TestMaxNMatchesOracle(t *testing.T) {
	grads := oracleGradients()
	// One multi-variable set too: AutoN's budget search sums over variables
	// and SelectN reads the maxes its histogram kept, index by index.
	sets := map[string][]*nn.Param{
		"mixed set": oracleParams(grads["normal 4099"], grads["all zero"], grads["nan"],
			grads["normal 17 with zeros"], grads["length 1"], grads["single spike"]),
	}
	for name, g := range grads {
		sets[name] = oracleParams(g)
	}
	for name, params := range sets {
		before := make([][]float32, len(params))
		full := 0
		for i, p := range params {
			before[i] = append([]float32(nil), p.G.Data...)
			full += headerBytes + 4*p.G.Len()
		}
		budgets := []int{0, 1, 64, full / 10, full / 3, full/2 + 1, full - 1, full, 2 * full}
		for _, prec := range []Precision{PrecF32, PrecF16, PrecI8} {
			for _, n := range []float64{0.85, 10, 50, 100} {
				for _, budget := range budgets {
					m, ref := NewMaxN(n), NewMaxN(n)
					gotN := m.N
					if budget > 0 {
						gotN = autoN(m, params, budget)
					}
					got := m.Select(0, params, budget)
					want, ok := refSelect(ref, params, budget, gotN)
					if !ok && finite(params) {
						t.Fatalf("%s budget %d: the reference panicked on a finite gradient", name, budget)
					}
					QuantizeAll(got, prec)
					QuantizeAll(want, prec)
					if d := diffSelections(got, want); d != "" {
						t.Fatalf("%s N=%v budget=%d %v: %s", name, n, budget, prec, d)
					}
					if TotalBytes(got) != TotalBytes(want) {
						t.Fatalf("%s N=%v budget=%d %v: %d bytes, want %d", name, n, budget, prec,
							TotalBytes(got), TotalBytes(want))
					}
					for i, p := range params {
						if !sameBits(p.G.Data, before[i]) {
							t.Fatalf("%s N=%v budget=%d %v: selection rewrote %s.G", name, n, budget, prec, p.Name)
						}
					}
				}
			}
		}
	}
}

// TestSelectNAfterStaleHistogram: the maxes and the histogram a call leaves
// behind are read only by that call. A later fixed-N selection on a
// different gradient, or a budgeted one after the gradient changed, walks
// again.
func TestSelectNAfterStaleHistogram(t *testing.T) {
	m := NewMaxN(10)
	a := oracleParams(oracleGradients()["normal 512"])
	m.Select(0, a, 500)
	for i := range a[0].G.Data {
		a[0].G.Data[i] *= -3
	}
	a[0].G.Data[7] = 100
	for _, budget := range []int{0, 500} {
		want, _ := refSelect(NewMaxN(10), a, budget, 0)
		if d := diffSelections(m.Select(0, a, budget), want); d != "" {
			t.Fatalf("budget %d after the gradient changed: %s", budget, d)
		}
	}
	b := oracleParams(oracleGradients()["normal 17 with zeros"])
	m.N = 25
	if d := diffSelections(m.Select(0, b, 0), refSelectN(m, b, 25)); d != "" {
		t.Fatalf("fixed N on another gradient after a budgeted call: %s", d)
	}
}

// TestAbs32MatchesSignTest: over every exponent, both signs, a few
// mantissas. Compared by value and NaN-ness, not bits: |-0| is now +0, the
// one intended difference, and it is equal under every comparison made.
func TestAbs32MatchesSignTest(t *testing.T) {
	for exp := uint32(0); exp <= 0xff; exp++ {
		for _, mant := range []uint32{0, 1, 0x400000, 0x400001, 0x7fffff} {
			for _, sign := range []uint32{0, 1 << 31} {
				v := math.Float32frombits(sign | exp<<23 | mant)
				got, want := abs32(v), refAbs32(v)
				if got != want && !(got != got && want != want) {
					t.Fatalf("abs32(%#08x) = %v, want %v", sign|exp<<23|mant, got, want)
				}
				if math.Signbit(float64(got)) {
					t.Fatalf("abs32(%#08x) = %v kept its sign", sign|exp<<23|mant, got)
				}
				if tm := tensor.FromSlice([]float32{v}, 1).MaxAbs(); tm != refMaxAbs([]float32{v}) {
					t.Fatalf("MaxAbs([%#08x]) = %v, want %v", sign|exp<<23|mant, tm, refMaxAbs([]float32{v}))
				}
			}
		}
	}
}

// TestSelectBudgetsMatchesSelect: for one gradient, SelectBudgets over a
// list of budgets returns what a fresh Select returns for each, payload for
// payload, and builds the histogram once per call however many budgets are
// positive (none when none is).
func TestSelectBudgetsMatchesSelect(t *testing.T) {
	grads := oracleGradients()
	params := oracleParams(grads["normal 4099"], grads["all zero"], grads["nan"],
		grads["normal 17 with zeros"], grads["length 1"], grads["single spike"])
	full := 0
	for _, p := range params {
		full += headerBytes + 4*p.G.Len()
	}
	m := NewMaxN(50)
	for _, budgets := range [][]int{
		{full / 10, full / 3},        // a WAN and a LAN tier
		{full / 3, full / 10, 0, 64}, // unordered, an unlimited link among them
		{full / 5, full / 5},         // one budget at two precisions
		{2 * full},
		{0},
		{0, -1},
	} {
		positive := 0
		for _, b := range budgets {
			if b > 0 {
				positive = 1
			}
		}
		out := make([][]*Selection, len(budgets))
		before := m.hist.builds
		m.SelectBudgets(params, budgets, out)
		if got := m.hist.builds - before; got != positive {
			t.Fatalf("budgets %v: %d histogram builds, want %d", budgets, got, positive)
		}
		for i, b := range budgets {
			if d := diffSelections(out[i], NewMaxN(50).Select(0, params, b)); d != "" {
				t.Fatalf("budgets %v, budget %d: %s", budgets, b, d)
			}
		}
		if len(budgets) > 1 && out[0][0] == out[1][0] {
			t.Fatalf("budgets %v: two budgets share one Selection", budgets)
		}
	}
}
