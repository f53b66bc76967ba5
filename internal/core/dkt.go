package core

import (
	"dlion/internal/tensor"
	"dlion/internal/wire"
)

// dktDecisionDelay is how long a worker waits after broadcasting its loss
// before electing the best worker, giving the (tiny) loss reports time to
// arrive. Loss reports are a few dozen bytes, so this is comfortably above
// any link's delivery time while staying well below the DKT period.
const dktDecisionDelay = 1.0

// maybeDKT runs the model synchronization module of Figure 10: every
// DKT.Period iterations the worker broadcasts its average recent loss,
// then (after a short collection delay) sends a DKT request to the worker
// with the smallest loss, which responds with its weights (§3.4).
func (w *Worker) maybeDKT() {
	if !w.cfg.DKT.Enabled || w.iter-w.lastDKTIter < w.cfg.DKT.Period {
		return
	}
	w.lastDKTIter = w.iter
	avg := w.AvgRecentLoss()
	for _, p := range w.peerIDs {
		w.send(&wire.Message{Type: wire.TypeLossReport, From: int32(w.ID),
			To: int32(p), Iter: w.iter, Loss: avg})
	}
	w.after(dktDecisionDelay, w.decideDKT)
}

// decideDKT elects the best worker from the latest loss reports and pulls
// its weights. In the Best2all default every worker that is not the best
// requests the transfer; in the Best2worst variant only the worst does.
// The electorate is the roster: a departed or suspected peer's row, loss
// report included, was reset when it left it. The roster is walked in id
// order, so among equal losses the lowest id wins.
func (w *Worker) decideDKT() {
	myLoss := w.AvgRecentLoss()
	best, bestLoss := w.ID, myLoss
	worst, worstLoss := w.ID, myLoss
	for _, p := range w.peerIDs {
		ps := &w.peers[p]
		if !ps.hasLoss {
			continue
		}
		if ps.loss < bestLoss {
			best, bestLoss = p, ps.loss
		}
		if ps.loss > worstLoss {
			worst, worstLoss = p, ps.loss
		}
	}
	if best == w.ID {
		return // others will pull from us
	}
	if w.cfg.DKT.Best2Worst && worst != w.ID {
		return // only the worst worker pulls in this variant
	}
	w.send(&wire.Message{Type: wire.TypeDKTRequest, From: int32(w.ID),
		To: int32(best), Iter: w.iter})
}

// cloneWeights snapshots the local model — the payload of DKT transfers
// and membership WELCOMEs.
func (w *Worker) cloneWeights() map[string]*tensor.Tensor {
	weights := make(map[string]*tensor.Tensor)
	for _, p := range w.model.Params() {
		weights[p.Name] = p.W.Clone()
	}
	return weights
}

// sendWeights answers a DKT request with a full copy of the local model.
func (w *Worker) sendWeights(to int) {
	w.stats.DKTWeightsSent++
	w.send(&wire.Message{Type: wire.TypeWeights, From: int32(w.ID),
		To: int32(to), Iter: w.iter, Weights: w.cloneWeights()})
}
