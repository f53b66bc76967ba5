package core

import (
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/wire"
)

// selCacheEntry is one per-iteration selection-cache slot (see
// exchangeGradients): the selection and quantization outcome for every link
// sharing a (selector budget, precision) pair this iteration.
type selCacheEntry struct {
	selBudget int
	prec      grad.Precision
	to        int // the first link's peer: the one Select is asked for
	sels      []*grad.Selection
	saved     int // quantization bytes saved, re-counted per link
	count     int // grad.TotalCount(sels), cached alongside
}

// multiBudget is a LinkInvariant selector that serves several byte budgets
// over one gradient in one call: out[i] is what Select returns under
// budgets[i]. grad.MaxN builds its |g| histogram once for all of them.
type multiBudget interface {
	SelectBudgets(params []*nn.Param, budgets []int, out [][]*grad.Selection)
}

// exchangeGradients runs the partial gradients generation module of Figure
// 10: for each peer it asks the network resource monitor for the link's
// available bandwidth, derives the per-link byte budget of the transmission
// speed assurance module (§3.3), runs the configured selector, and sends
// the result. The budget is
//
//	maxBytes = BW_net_j / Iter_com_i = BW_bytes_per_sec · iterSeconds_i
//
// i.e. the bytes the link can absorb during one of this worker's
// iterations, exactly the paper's formula with Iter_com_i = 1/iterSeconds.
// Exchange targets the roster: a suspected or departed peer gets nothing,
// and the fan-out divisor of the byte budget shrinks with the roster so
// the remaining links get the freed share.
func (w *Worker) exchangeGradients() {
	params := w.model.Params()
	peers := w.peerIDs
	quantOn := w.cfg.Quant.Auto || w.cfg.Quant.Precision != grad.PrecF32
	// With a LinkInvariant selector (MaxN, Full), links that resolve to the
	// same (budget, precision) receive the same Selection set, so it is
	// computed once and shared across their messages. Under a uniform or
	// per-worker-egress network every peer hits one cache slot, and a
	// hierarchical federation hits one slot per tier (LAN, WAN) — the
	// selection cost per iteration drops from O(n·model) to
	// O(tiers·model), which is what makes 1000-worker federations
	// simulable (DESIGN.md §14). Receivers and encoders treat Selections
	// as read-only, so sharing is safe on both substrates, and a cached
	// result is bit-identical to a recomputation by definition of
	// LinkInvariant — seeded runs are unchanged by the cache. Every link is
	// resolved to its slot first, so a multiBudget selector is asked once
	// for all the slots' budgets.
	w.selCache = w.selCache[:0]
	for _, p := range peers {
		budget := 0
		if w.cfg.LinkBudget {
			// The worker transmits to all n-1 peers concurrently over a
			// shared egress, so each link's effective share of
			// BW_net_j/Iter_com_i is divided by the fan-out; the payload
			// budget additionally shrinks by the wire inflation factor.
			bwBytes := w.env.Bandwidth(w.ID, p) * 1e6 / 8
			budget = int(bwBytes * w.iterSec / (float64(len(peers)) * w.env.SendScale()))
			if budget < 64 {
				budget = 64
			}
		}
		prec := grad.PrecF32
		selBudget := budget
		if quantOn {
			prec = w.linkPrecision(budget)
			if prec != grad.PrecF32 {
				// The selector thinks in f32 byte costs; a reduced-precision
				// payload fits more values per budget byte, so the budget it
				// sees is inflated by the entry-cost ratio.
				selBudget = int(float64(budget) * grad.BudgetInflation(prec))
			}
		}
		slot := -1
		if w.selInvariant {
			for i := range w.selCache {
				if w.selCache[i].selBudget == selBudget && w.selCache[i].prec == prec {
					slot = i
					break
				}
			}
		}
		if slot < 0 {
			slot = len(w.selCache)
			w.selCache = append(w.selCache, selCacheEntry{selBudget: selBudget, prec: prec, to: p})
		}
		w.peers[p].budget = budget
		w.peers[p].slot = int32(slot)
	}
	w.selectSlots(params)
	for _, p := range peers {
		entry := &w.selCache[w.peers[p].slot]
		if entry.saved > 0 {
			// Byte savings are per transmission: every link sending this
			// payload avoids the same dense-f32 overshoot.
			w.stats.QuantBytesSaved += int64(entry.saved)
		}
		w.peers[p].selCount = entry.count
		w.stats.GradValuesSent += int64(entry.count)
		w.stats.GradMsgsSent++
		if len(entry.sels) == 0 {
			// Nothing significant to send (e.g. Gaia below threshold). The
			// peer's sync bookkeeping still needs the iteration signal.
			w.send(&wire.Message{Type: wire.TypeGradient, From: int32(w.ID),
				To: int32(p), Iter: w.iter, LBS: int32(w.lbs)})
			continue
		}
		w.send(&wire.Message{Type: wire.TypeGradient, From: int32(w.ID),
			To: int32(p), Iter: w.iter, LBS: int32(w.lbs), Selections: entry.sels})
	}
	// Drop the Selection references: the messages own them now, and a
	// retained cache would keep the previous iteration's gradients alive.
	for i := range w.selCache {
		w.selCache[i] = selCacheEntry{}
	}
}

// selectSlots runs the selector for every cache slot, in slot order (the
// order of the slots' first links), and quantizes each slot's selections to
// its precision. A multiBudget selector is asked once for every slot.
func (w *Worker) selectSlots(params []*nn.Param) {
	if w.selBatch != nil {
		n := len(w.selCache)
		if cap(w.selOut) < n {
			w.selBudgets, w.selOut = make([]int, n), make([][]*grad.Selection, n)
		}
		budgets, out := w.selBudgets[:n], w.selOut[:n]
		for i := range budgets {
			budgets[i] = w.selCache[i].selBudget
		}
		w.selBatch.SelectBudgets(params, budgets, out)
		for i := range out {
			w.selCache[i].sels = out[i]
			out[i] = nil
		}
	} else {
		for i := range w.selCache {
			e := &w.selCache[i]
			e.sels = w.selector.Select(e.to, params, e.selBudget)
		}
	}
	for i := range w.selCache {
		e := &w.selCache[i]
		if e.prec != grad.PrecF32 {
			e.saved = grad.QuantizeAll(e.sels, e.prec)
		}
		e.count = grad.TotalCount(e.sels)
	}
}

// linkPrecision picks the wire precision for a link: the fixed
// configured precision, or — in auto mode — the cheapest precision whose
// loss is justified by the link's byte budget relative to a full dense f32
// exchange (f32 when the budget covers it, f16 at half, int8 below). The
// sender alone decides: every receiver decodes every precision.
func (w *Worker) linkPrecision(budget int) grad.Precision {
	switch {
	case !w.cfg.Quant.Auto:
		return w.cfg.Quant.Precision
	case budget <= 0 || budget >= w.fullDense:
		return grad.PrecF32
	case 2*budget >= w.fullDense:
		return grad.PrecF16
	}
	return grad.PrecI8
}

// applyRemoteGradient is the model update module: apply a peer's partial
// gradients to the weights of dst — the local model, or the evaluation
// view's copy of it (CopyJoinedWeights) — with the dynamic batching weight
// db_j^k = LBS_j / LBS_k of Eq. 7 (clamped for stability; see DESIGN.md).
// It reads the worker and writes only dst.
func (w *Worker) applyRemoteGradient(dst *nn.Model, m *wire.Message) {
	if len(m.Selections) == 0 {
		return
	}
	db := 1.0
	if w.cfg.Batch.WeightedUpdate && m.LBS > 0 && w.lbs > 0 {
		db = float64(m.LBS) / float64(w.lbs)
		if maxDB := w.cfg.Batch.DBClampMax; maxDB > 1 {
			if db > maxDB {
				db = maxDB
			}
			if db < 1/maxDB {
				db = 1 / maxDB
			}
		}
	}
	scale := float32(-w.cfg.LearningRate * db / float64(w.clusterSize()))
	for _, sel := range m.Selections {
		p := dst.Param(sel.Var)
		if p == nil {
			continue // unknown variable: ignore, consistent with a generic queue
		}
		if err := sel.AddTo(p.W.Data, scale); err != nil {
			continue
		}
	}
}
