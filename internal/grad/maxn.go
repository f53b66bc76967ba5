package grad

import (
	"math"

	"dlion/internal/nn"
)

// MaxN implements DLion's data quality assurance algorithm (§3.3): for
// each weight variable, select the gradient values whose absolute value is
// within the top N% of the variable's maximum absolute value, i.e.
//
//	|g_i| >= (1 - N/100) · max_j |g_j|
//
// N=100 therefore exchanges the whole gradient and N→0 exchanges only the
// single largest value, matching the paper's "as N increases, the size of
// partial gradients increases" and "if N is 100, it is equivalent to
// exchanging whole gradients". (The paper's prose also contains the
// inverted phrasing "greater than or equal to N% of the maximum"; that
// reading contradicts its own N=100 example and Figure 7's
// accuracy-increases-with-N trend, so we implement the self-consistent
// form.)
//
// When a positive byte budget is supplied, AutoN is applied first: the
// largest N whose selection fits the budget is chosen per link, which is
// the transmission speed assurance module's job. MinN bounds the search
// from below (the paper's evaluation sets 0.85).
type MaxN struct {
	N    float64 // fixed N when no budget applies; (0, 100]
	MinN float64 // lower bound for auto-tuned N; default 0.85

	// scratch histogram reused across calls
	hist histogram
}

// NewMaxN returns a MaxN selector with a fixed N (used when the budget is
// unlimited) and the paper's default MinN.
func NewMaxN(n float64) *MaxN {
	if n <= 0 || n > 100 {
		panic("grad: MaxN requires 0 < N <= 100")
	}
	return &MaxN{N: n, MinN: 0.85}
}

// Name implements Selector.
func (m *MaxN) Name() string { return "maxN" }

// LinkInvariantSelection implements LinkInvariant: MaxN keeps no per-peer
// state, so equal budgets always produce equal selections.
func (m *MaxN) LinkInvariantSelection() {}

// Select implements Selector. The same fresh mean gradient must be passed
// for every peer of the current iteration; MaxN keeps no cross-iteration
// state, so per-link differences come only from the per-link budget.
func (m *MaxN) Select(_ int, params []*nn.Param, budgetBytes int) []*Selection {
	if budgetBytes > 0 {
		// AutoN's histogram pass left every variable's max behind.
		return m.selectN(params, m.AutoN(params, budgetBytes))
	}
	return m.SelectN(params, m.N)
}

// SelectN runs the Max N rule with an explicit N over all variables.
func (m *MaxN) SelectN(params []*nn.Param, n float64) []*Selection {
	m.hist.maxAbs = m.hist.maxAbs[:0]
	for _, p := range params {
		m.hist.maxAbs = append(m.hist.maxAbs, p.G.MaxAbs())
	}
	return m.selectN(params, n)
}

// selectN is SelectN once m.hist.maxAbs holds each variable's max |g|.
func (m *MaxN) selectN(params []*nn.Param, n float64) []*Selection {
	if n <= 0 {
		n = m.MinN
	}
	if n > 100 {
		n = 100
	}
	frac := 1 - n/100
	out := make([]*Selection, 0, len(params))
	for i, p := range params {
		out = append(out, selectVariable(p, frac, m.hist.maxAbs[i]))
	}
	return out
}

// selectVariable applies threshold = frac·maxAbs to one variable. When the
// threshold admits every value the dense encoding is used (half the wire
// cost); otherwise the selection stays sparse so that exactly the chosen
// values — and nothing below the threshold — are transmitted.
func selectVariable(p *nn.Param, frac float64, maxAbs float32) *Selection {
	g := p.G.Data
	thresh := float32(frac) * maxAbs
	count := 0
	for _, v := range g {
		if abs32(v) >= thresh {
			count++
		}
	}
	if count == len(g) {
		return denseSelection(p)
	}
	sel := &Selection{Var: p.Name, Total: len(g),
		Idx: make([]int32, 0, count), Val: make([]float32, 0, count)}
	for i, v := range g {
		if abs32(v) >= thresh {
			sel.Idx = append(sel.Idx, int32(i))
			sel.Val = append(sel.Val, v)
		}
	}
	return sel
}

// AutoN returns the largest N in [MinN, 100] whose selection fits within
// budgetBytes, using a shared histogram of |g|/maxAbs per variable so the
// search is O(params + buckets) instead of O(params·log) per link.
func (m *MaxN) AutoN(params []*nn.Param, budgetBytes int) float64 {
	m.hist.build(params)
	lo, hi := m.MinN, 100.0
	if m.hist.bytesAtN(hi) <= budgetBytes {
		return hi
	}
	if m.hist.bytesAtN(lo) > budgetBytes {
		return lo // even the minimum overshoots; MinN is a floor by design
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if m.hist.bytesAtN(mid) <= budgetBytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// histogram buckets |g|/maxAbs over all variables. bucket k holds values
// with ratio in [k/B, (k+1)/B); selection at threshold frac counts buckets
// >= frac·B. Dense fallback is accounted per variable.
type histogram struct {
	buckets  int
	perVar   [][]int // counts per variable
	varLens  []int
	maxAbs   []float32 // per variable, kept for the SelectN that follows
	varCumul [][]int   // suffix sums: cumul[v][k] = #values with ratio >= k/B
	numVars  int
}

const histBuckets = 512

func (h *histogram) build(params []*nn.Param) {
	h.buckets = histBuckets
	h.numVars = len(params)
	if cap(h.perVar) < len(params) {
		h.perVar = make([][]int, len(params))
		h.varCumul = make([][]int, len(params))
		h.varLens = make([]int, len(params))
	}
	h.perVar = h.perVar[:len(params)]
	h.varCumul = h.varCumul[:len(params)]
	h.varLens = h.varLens[:len(params)]
	h.maxAbs = h.maxAbs[:0]
	for vi, p := range params {
		if h.perVar[vi] == nil {
			h.perVar[vi] = make([]int, h.buckets)
			h.varCumul[vi] = make([]int, h.buckets+1)
		}
		counts := h.perVar[vi]
		for i := range counts {
			counts[i] = 0
		}
		g := p.G.Data
		h.varLens[vi] = len(g)
		maxAbs := p.G.MaxAbs()
		h.maxAbs = append(h.maxAbs, maxAbs)
		if maxAbs == 0 {
			// all-zero gradient: everything is "at the max"; bucket B-1
			counts[h.buckets-1] = len(g)
		} else {
			inv := float64(h.buckets) / float64(maxAbs)
			for _, v := range g {
				// Compared before converting: a NaN ratio (a NaN value, or
				// Inf under an Inf max) has no int and lands at the max.
				k := h.buckets - 1
				if r := float64(abs32(v)) * inv; r < float64(k) {
					k = int(r)
				}
				counts[k]++
			}
		}
		cum := h.varCumul[vi]
		cum[h.buckets] = 0
		for k := h.buckets - 1; k >= 0; k-- {
			cum[k] = cum[k+1] + counts[k]
		}
	}
}

// bytesAtN estimates wire bytes if selection ran at the given N, matching
// selectVariable's dense-fallback rule.
func (h *histogram) bytesAtN(n float64) int {
	frac := 1 - n/100
	k := int(frac * float64(h.buckets))
	if k < 0 {
		k = 0
	}
	if k > h.buckets {
		k = h.buckets
	}
	total := 0
	for vi := 0; vi < h.numVars; vi++ {
		count := h.varCumul[vi][k]
		if count == h.varLens[vi] {
			total += headerBytes + 4*h.varLens[vi]
		} else {
			total += headerBytes + sparseEntryBytes*count
		}
	}
	return total
}

// abs32 clears the sign bit. A sign test instead mispredicts on every other
// element of a zero-centred gradient, which was most of Max-N's cost.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}
