package serve

import "context"

// WatchBroadcasts consumes weight-update frames (EncodeUpdateManifest) from
// ch — an in-process broker Subscription.C or a queue client's Subscribe
// channel on WeightsChannel — publishing each into the registry until ch
// closes or ctx is done. A frame DecodeUpdateAny refuses is dropped and
// counted in serve.swap_rejected, and stale versions are dropped; with
// several workers broadcasting, the registry's strictly-increasing sequence
// rule arbitrates, so the cluster's freshest checkpoint wins regardless of
// arrival order. Manifest-carrying frames attach their lineage record to the
// published version.
func (r *Registry) WatchBroadcasts(ctx context.Context, ch <-chan []byte) {
	for {
		select {
		case <-ctx.Done():
			return
		case p, ok := <-ch:
			if !ok {
				return
			}
			seq, man, ckpt, err := DecodeUpdateAny(p)
			if err != nil {
				r.mu.Lock()
				r.rejected.Inc()
				r.mu.Unlock()
				continue
			}
			_ = r.PublishManifest(seq, "broadcast", ckpt, man)
		}
	}
}
