package grad

import (
	"math"
	"sync"

	"dlion/internal/nn"
	"dlion/internal/tensor"
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

	// scratch: each variable's max |g| and the |g|/max histogram, both
	// rewritten by every SelectBudgets call before it reads them; the
	// histogram's buckets are borrowed from histPool for that call only
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

// Select implements Selector: the one-budget case of SelectBudgets. The
// same fresh mean gradient must be passed for every peer of the current
// iteration; MaxN keeps no cross-iteration state, so per-link differences
// come only from the per-link budget.
func (m *MaxN) Select(_ int, params []*nn.Param, budgetBytes int) []*Selection {
	var out [1][]*Selection
	m.SelectBudgets(params, []int{budgetBytes}, out[:])
	return out[0]
}

// SelectBudgets sets out[i] to what Select(·, params, budgets[i]) returns,
// for every budget, in one pass over the gradient: each variable's max |g|
// is taken once, the |g|/max histogram is built at most once (the first
// positive budget builds it, in this call), and only AutoN's search and the
// selection run per budget. A federation worker's LAN and WAN tiers are two
// budgets over one gradient. out must be at least as long as budgets.
func (m *MaxN) SelectBudgets(params []*nn.Param, budgets []int, out [][]*Selection) {
	m.hist.maxes(params)
	built := false
	for i, b := range budgets {
		n := m.N
		if b > 0 {
			if !built {
				m.hist.build(params)
				defer m.hist.release()
				built = true
			}
			n = m.hist.autoN(m.MinN, b)
		}
		out[i] = m.selectN(params, n)
	}
}

// selectN runs the Max N rule with N over all variables, once m.hist.maxAbs
// holds each variable's max |g|.
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
	count := tensor.CountAbsAtLeast(g, thresh)
	if count == len(g) {
		return denseSelection(p)
	}
	sel := &Selection{Var: p.Name, Total: len(g),
		Idx: make([]int32, count), Val: make([]float32, count)}
	tensor.GatherAbsAtLeast(sel.Idx, sel.Val, g, thresh)
	return sel
}

// autoN returns the largest N in [minN, 100] whose selection fits within
// budgetBytes, searching the built histogram, so the search is
// O(variables·buckets) instead of a pass over the gradient per link.
func (h *histogram) autoN(minN float64, budgetBytes int) float64 {
	lo, hi := minN, 100.0
	if h.bytesAtN(hi) <= budgetBytes {
		return hi
	}
	if h.bytesAtN(lo) > budgetBytes {
		return lo // even the minimum overshoots; MinN is a floor by design
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

// histogram buckets |g|/maxAbs over all variables. bucket k holds values
// with ratio in [k/B, (k+1)/B); selection at threshold frac counts buckets
// >= frac·B. Dense fallback is accounted per variable.
type histogram struct {
	varLens []int
	maxAbs  []float32 // per variable (maxes), read by build and selectN
	// cumul holds each variable's suffix sums, B+1 per variable:
	// cumul[v·(B+1)+k] = #values of variable v with ratio >= k/B. It and
	// counts, one variable's buckets, live in scratch from build to release.
	cumul   []int
	counts  []int
	scratch *[]int
	builds  int // build calls so far: a test pins one per SelectBudgets
}

const histBuckets = 512

// histPool shares histogram storage among every MaxN: a selector holds it
// only inside one SelectBudgets call, so a federation of selectors needs as
// many buffers as calls run at once, not one per selector.
var histPool = sync.Pool{New: func() any { return new([]int) }}

// maxes takes each variable's max |g| into h.maxAbs.
func (h *histogram) maxes(params []*nn.Param) {
	h.maxAbs = h.maxAbs[:0]
	for _, p := range params {
		h.maxAbs = append(h.maxAbs, p.G.MaxAbs())
	}
}

// build buckets every variable under the maxes h.maxes took of the same
// params, into storage taken from histPool; release gives it back.
func (h *histogram) build(params []*nn.Param) {
	h.builds++
	h.scratch = histPool.Get().(*[]int)
	need := histBuckets + len(params)*(histBuckets+1)
	if cap(*h.scratch) < need {
		*h.scratch = make([]int, need)
	}
	buf := (*h.scratch)[:need]
	h.counts, h.cumul = buf[:histBuckets], buf[histBuckets:]
	h.varLens = h.varLens[:0]
	counts := h.counts
	for vi, p := range params {
		for i := range counts {
			counts[i] = 0
		}
		g := p.G.Data
		h.varLens = append(h.varLens, len(g))
		if maxAbs := h.maxAbs[vi]; maxAbs == 0 {
			// all-zero gradient: everything is "at the max"; bucket B-1
			counts[histBuckets-1] = len(g)
		} else {
			inv := float64(histBuckets) / float64(maxAbs)
			for _, v := range g {
				// Compared before converting: a NaN ratio (a NaN value, or
				// Inf under an Inf max) has no int and lands at the max.
				k := histBuckets - 1
				if r := float64(abs32(v)) * inv; r < float64(k) {
					k = int(r)
				}
				counts[k]++
			}
		}
		cum := h.cumul[vi*(histBuckets+1) : (vi+1)*(histBuckets+1)]
		cum[histBuckets] = 0
		for k := histBuckets - 1; k >= 0; k-- {
			cum[k] = cum[k+1] + counts[k]
		}
	}
}

// release returns the storage build took to histPool.
func (h *histogram) release() {
	histPool.Put(h.scratch)
	h.scratch, h.counts, h.cumul = nil, nil, nil
}

// bytesAtN estimates wire bytes if selection ran at the given N, matching
// selectVariable's dense-fallback rule.
func (h *histogram) bytesAtN(n float64) int {
	frac := 1 - n/100
	k := int(frac * float64(histBuckets))
	if k < 0 {
		k = 0
	}
	if k > histBuckets {
		k = histBuckets
	}
	total := 0
	for vi := range h.varLens {
		count := h.cumul[vi*(histBuckets+1)+k]
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
