package core

import (
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/wire"
)

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
// selCacheEntry is one per-iteration selection-cache slot (see
// exchangeGradients): the selection and quantization outcome for every link
// sharing a (selector budget, precision) pair this iteration.
type selCacheEntry struct {
	selBudget int
	prec      grad.Precision
	sels      []*grad.Selection
	saved     int // quantization bytes saved, re-counted per link
	count     int // grad.TotalCount(sels), cached alongside
}

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
	// LinkInvariant — seeded runs are unchanged by the cache.
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
			prec = w.linkPrecision(p, budget)
			if prec != grad.PrecF32 {
				// The selector thinks in f32 byte costs; a reduced-precision
				// payload fits more values per budget byte, so the budget it
				// sees is inflated by the entry-cost ratio.
				selBudget = int(float64(budget) * grad.BudgetInflation(prec))
			}
		}
		link := &w.peers[p]
		link.prec = prec

		var entry *selCacheEntry
		if w.selInvariant {
			for i := range w.selCache {
				if w.selCache[i].selBudget == selBudget && w.selCache[i].prec == prec {
					entry = &w.selCache[i]
					break
				}
			}
		}
		if entry == nil {
			sels := w.selector.Select(p, params, selBudget)
			saved := 0
			if prec != grad.PrecF32 {
				saved = grad.QuantizeAll(sels, prec)
			}
			w.selCache = append(w.selCache, selCacheEntry{
				selBudget: selBudget, prec: prec, sels: sels,
				saved: saved, count: grad.TotalCount(sels)})
			entry = &w.selCache[len(w.selCache)-1]
		}
		if entry.saved > 0 {
			// Byte savings are per transmission: every link sending this
			// payload avoids the same dense-f32 overshoot.
			w.stats.QuantBytesSaved += int64(entry.saved)
			w.obs.AddQuantSaved(entry.saved)
		}
		link.budget = budget
		link.selCount = entry.count
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

// linkPrecision picks the wire precision for the link to peer p: the fixed
// configured precision, or — in auto mode — the cheapest precision whose
// loss is justified by the link's byte budget relative to a full dense f32
// exchange (f32 when the budget covers it, f16 at half, int8 below). The
// result is clamped by the peer's advertised accept mask, so a sender never
// emits a precision its receiver did not negotiate for.
func (w *Worker) linkPrecision(p, budget int) grad.Precision {
	prec := w.cfg.Quant.Precision
	if w.cfg.Quant.Auto {
		switch {
		case budget <= 0 || budget >= w.fullDense:
			prec = grad.PrecF32
		case 2*budget >= w.fullDense:
			prec = grad.PrecF16
		default:
			prec = grad.PrecI8
		}
	}
	return w.PeerAcceptMask(p).Clamp(prec)
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
