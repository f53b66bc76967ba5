package grad

import (
	"dlion/internal/nn"
)

// Gaia implements the significance filter of Gaia (Hsieh et al., NSDI'17)
// as described in §5.1.4: a worker accumulates gradient updates per peer
// and sends only the accumulated values whose relative magnitude against
// the current weight exceeds the significance threshold S (percent). Sent
// values are cleared from the accumulator; insignificant residual keeps
// accumulating, so no update is ever lost, only delayed. The byte budget
// is ignored — Gaia is purely significance-driven.
type Gaia struct {
	S float64 // significance threshold in percent; the paper's eval uses 1

	acc map[int]map[string][]float32 // per peer, per variable
}

// NewGaia returns a Gaia selector with threshold S percent.
func NewGaia(s float64) *Gaia {
	if s <= 0 {
		panic("grad: Gaia requires S > 0")
	}
	return &Gaia{S: s, acc: map[int]map[string][]float32{}}
}

// Name implements Selector.
func (g *Gaia) Name() string { return "gaia" }

// Select implements Selector.
func (g *Gaia) Select(to int, params []*nn.Param, _ int) []*Selection {
	peer := g.acc[to]
	if peer == nil {
		peer = map[string][]float32{}
		g.acc[to] = peer
	}
	thresh := float32(g.S / 100)
	out := make([]*Selection, 0, len(params))
	for _, p := range params {
		a := peer[p.Name]
		if a == nil {
			a = make([]float32, p.G.Len())
			peer[p.Name] = a
		}
		w := p.W.Data
		sel := &Selection{Var: p.Name, Total: p.G.Len()}
		for i, gv := range p.G.Data {
			a[i] += gv
			// significance: |accumulated update| relative to |weight|
			denom := abs32(w[i])
			if denom < 1e-6 {
				denom = 1e-6
			}
			if abs32(a[i])/denom >= thresh {
				sel.Idx = append(sel.Idx, int32(i))
				sel.Val = append(sel.Val, a[i])
				a[i] = 0
			}
		}
		if sel.Count() > 0 {
			out = append(out, sel)
		}
	}
	return out
}
