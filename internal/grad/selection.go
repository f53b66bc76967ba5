// Package grad implements the gradient selection algorithms DLion and the
// comparison systems use to decide *which* gradient values cross the
// network each iteration: Full (Baseline), Max N (DLion, §3.3), Gaia's
// significance filter, and Ako's partitioned exchange.
//
// Selection granularity is the individual weight variable, matching §4.2
// ("the granularity of data transmission is not the whole weight variables,
// but individual weight variables").
package grad

import (
	"fmt"

	"dlion/internal/nn"
)

// Selection is the subset of one weight variable's gradient chosen for
// transmission: either a dense vector or a sparse (index, value) list.
type Selection struct {
	Var   string
	Total int // full element count of the variable

	Dense []float32 // dense representation (len == Total), or nil
	Idx   []int32   // sparse indices, ascending, or nil
	Val   []float32 // sparse values parallel to Idx

	// Quantized wire payload (see quant.go). When Prec != PrecF32 the
	// values that cross the wire are Q8 or F16 (parallel to Dense or Val),
	// and Dense/Val hold their dequantized float32 image — what a receiver
	// reconstructs, and what AddTo applies. Scale/Zero are the int8
	// per-variable dequantization parameters.
	Prec  Precision
	Scale float32
	Zero  int8
	// borrowed: Dense aliases the sender's live Param.G (see Own). The flag
	// sits in the padding after Zero, so Selection stays 160 bytes.
	borrowed bool
	Q8       []int8
	F16      []uint16
}

// sparseEntryBytes is the wire cost of one sparse (index, value) pair.
const sparseEntryBytes = 8

// headerBytes approximates per-variable framing overhead (name, counts).
const headerBytes = 24

// Count returns the number of gradient values carried.
func (s *Selection) Count() int {
	if s.Dense != nil {
		return len(s.Dense)
	}
	return len(s.Val)
}

// Bytes returns the wire size of the selection at its precision. The
// int8 per-variable (scale, zero-point) pair rides inside the header
// approximation.
func (s *Selection) Bytes() int {
	elem := s.Prec.ElemBytes()
	if s.Dense != nil {
		return headerBytes + elem*len(s.Dense)
	}
	return headerBytes + (4+elem)*len(s.Val)
}

// AddTo accumulates scale·selection into dst, which must be the variable's
// full backing slice.
func (s *Selection) AddTo(dst []float32, scale float32) error {
	if len(dst) != s.Total {
		return fmt.Errorf("grad: %s: dst len %d != total %d", s.Var, len(dst), s.Total)
	}
	if s.Dense != nil {
		for i, v := range s.Dense {
			dst[i] += float32(scale * v)
		}
		return nil
	}
	for k, i := range s.Idx {
		if int(i) >= len(dst) {
			return fmt.Errorf("grad: %s: index %d out of range %d", s.Var, i, len(dst))
		}
		dst[i] += float32(scale * s.Val[k])
	}
	return nil
}

// Own makes a borrowed Dense the selection's own, by one copy; on an owned,
// sparse or decoded selection it does nothing. A selector may hand out a
// Dense that aliases the sender's live gradient (Full, and the dense
// fallbacks of Max-N and Random-K): it is good until Env.Send returns, so an
// Env that keeps the message past the call owns its selections first.
func (s *Selection) Own() {
	if s.borrowed {
		s.Dense = append([]float32(nil), s.Dense...)
		s.borrowed = false
	}
}

// TotalBytes sums the wire size of a set of selections.
func TotalBytes(sels []*Selection) int {
	n := 0
	for _, s := range sels {
		n += s.Bytes()
	}
	return n
}

// TotalCount sums the number of gradient values across selections.
func TotalCount(sels []*Selection) int {
	n := 0
	for _, s := range sels {
		n += s.Count()
	}
	return n
}

// Selector chooses the partial gradients worker `self` sends to peer `to`.
// Implementations may keep per-peer state (accumulators, rotation
// counters); they are not safe for concurrent use.
//
// budgetBytes is the transmission budget computed by the transmission
// speed assurance module; <= 0 means unlimited. Selectors that ignore the
// budget (Full, Gaia, Ako) document that.
type Selector interface {
	Name() string
	Select(to int, params []*nn.Param, budgetBytes int) []*Selection
}

// LinkInvariant marks selectors whose Select result is a pure function of
// the current gradient and the byte budget — independent of the peer id and
// of any per-peer state. For such selectors a driver may run the selection
// once per distinct (budget, precision) and share the resulting Selections
// across every link of the iteration: with n-1 equal-bandwidth links that
// turns the per-iteration selection cost from O(n·model) into O(model),
// which is what makes thousand-worker federations simulable (DESIGN.md
// §14). Shared Selections have two writers, both before a second reader
// exists: Quantize (before the first Send) and Own (at the latest inside
// it). AddTo and the wire encoders never mutate them.
//
// MaxN and Full qualify (MaxN documents that per-link differences come only
// from the per-link budget). Gaia and Ako keep per-peer accumulators and
// must NOT be marked.
type LinkInvariant interface {
	// LinkInvariantSelection is a marker; implementations do nothing.
	LinkInvariantSelection()
}

// denseSelection returns a parameter's full gradient as a dense Selection
// that borrows p.G.Data (capacity clipped, so an append cannot reach past
// it): selecting everything costs no copy. See Selection.Own.
func denseSelection(p *nn.Param) *Selection {
	n := p.G.Len()
	return &Selection{Var: p.Name, Total: n, Dense: p.G.Data[:n:n], borrowed: true}
}

// Full sends every gradient value to every peer — the paper's Baseline
// comparison system. It ignores the byte budget.
type Full struct{}

// Name implements Selector.
func (Full) Name() string { return "full" }

// LinkInvariantSelection implements LinkInvariant: Full ignores both the
// peer and the budget.
func (Full) LinkInvariantSelection() {}

// Select implements Selector. The selections borrow the gradient tensors
// (see Selection.Own); nothing is copied.
func (Full) Select(_ int, params []*nn.Param, _ int) []*Selection {
	out := make([]*Selection, 0, len(params))
	for _, p := range params {
		out = append(out, denseSelection(p))
	}
	return out
}
