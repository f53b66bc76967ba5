// Package serve is the inference serving subsystem: it loads a model from
// an nn checkpoint and answers predict requests over HTTP with dynamic
// micro-batching, a bounded admission queue that sheds load instead of
// collapsing, and a model registry that hot-swaps new checkpoint versions
// without dropping in-flight requests.
//
// DLion trains models in place in micro-clouds precisely so they can be
// used near the data (PAPER.md §1); this package is the consumption end of
// that loop. A training cluster started with dlion-worker periodically
// publishes checkpoints on a queue-broker channel (WeightsChannel), and a
// dlion-serve process continuously picks them up, so the cluster feeds the
// server it trains for.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
)

// ErrStaleVersion reports a Publish whose sequence number does not advance
// the registry — a reordered broadcast or a re-delivered checkpoint. The
// registry keeps the newer version; delivery order across a gossiping
// cluster is not guaranteed, so this is an expected, countable event, not
// a failure.
var ErrStaleVersion = errors.New("serve: stale model version")

// ErrManifestMismatch reports a publish whose lineage manifest does not
// commit to the checkpoint it arrived with: the manifest's digest disagrees
// with the weights actually decoded. Such a version never reaches a runner —
// serving weights under a provenance record that does not name them would
// defeat the point of lineage.
var ErrManifestMismatch = errors.New("serve: manifest does not match checkpoint")

// Version is one immutable published model snapshot. Ckpt is the raw nn
// checkpoint; readers must treat it as read-only (runners restore private
// replicas from it, so one buffer feeds any number of concurrent runners).
type Version struct {
	Seq    int64     // training iteration (0 for an initial checkpoint); strictly increasing
	Source string    // provenance, e.g. "init:<file>" or "broadcast"
	At     time.Time // publish wall time
	Ckpt   []byte

	// Digest is the content digest of the checkpoint's weights
	// (lineage.ModelHash of the model it restores into), computed by the
	// registry itself from the checkpoint bytes — present on every version,
	// manifest or not.
	Digest lineage.Hash

	// Manifest is the lineage record the publisher attached (nil for an
	// initial checkpoint and for frames that carry none). When present, its
	// digest was verified against Digest at publish time.
	Manifest *lineage.Manifest
}

// ChainEntry is one accepted publish in the registry's version history —
// what /modelz exposes so an operator can answer "which weights served this
// request, and what training history produced them".
type ChainEntry struct {
	Seq      int64             `json:"seq"`
	Source   string            `json:"source"`
	At       time.Time         `json:"at"`
	Digest   lineage.Hash      `json:"digest"`
	Manifest *lineage.Manifest `json:"manifest,omitempty"`
}

// chainMax bounds the retained version history; older entries roll off.
const chainMax = 128

// Registry holds the currently served model version and swaps in new ones
// atomically. Publish validates a checkpoint against the layout of the model
// spec before it can ever reach a runner; Current is a single atomic load,
// so the request path never blocks on a swap.
type Registry struct {
	spec   nn.Spec
	layout nn.Layout // the spec's model name and parameter shapes, taken once

	mu    sync.Mutex // serializes Publish (validate + ordered swap) and guards chain
	cur   atomic.Pointer[Version]
	chain []ChainEntry // accepted publishes, oldest first, bounded by chainMax

	nswaps atomic.Int64 // accepted publishes, independent of metrics wiring

	swaps      *obs.Counter
	rejected   *obs.Counter
	stale      *obs.Counter
	manRejects *obs.Counter
	seqGauge   *obs.Gauge
}

// NewRegistry returns an empty registry serving models built from spec.
func NewRegistry(spec nn.Spec) *Registry {
	return &Registry{spec: spec, layout: spec.Layout()}
}

// SetMetrics wires the registry's counters into reg (METRICS.md:
// serve.swaps, serve.swap_rejected, serve.swap_stale,
// serve.manifest_rejects, and the serve.model_seq gauge). Call before
// publishing.
func (r *Registry) SetMetrics(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.swaps = reg.Counter("serve.swaps")
	r.rejected = reg.Counter("serve.swap_rejected")
	r.stale = reg.Counter("serve.swap_stale")
	r.manRejects = reg.Counter("serve.manifest_rejects")
	r.seqGauge = reg.Gauge("serve.model_seq")
}

// Spec returns the model spec versions are validated against.
func (r *Registry) Spec() nn.Spec { return r.spec }

// Current returns the live version, or nil before the first successful
// Publish. The returned version and its checkpoint are immutable.
func (r *Registry) Current() *Version { return r.cur.Load() }

// Swaps returns how many versions have been accepted.
func (r *Registry) Swaps() int64 { return r.nswaps.Load() }

// Publish validates ckpt against the registry's spec and atomically makes
// it the served version. Versions must arrive with strictly increasing
// seq: a stale or duplicate seq returns ErrStaleVersion and leaves the
// live version untouched, which is what makes hot-swap safe under
// reordered delivery. A checkpoint that fails structural validation is
// rejected and can never reach a runner.
func (r *Registry) Publish(seq int64, source string, ckpt []byte) error {
	return r.PublishManifest(seq, source, ckpt, nil)
}

// PublishManifest is Publish with a lineage manifest attached. Beyond the
// structural and ordering checks, the manifest must actually commit to the
// checkpoint: its digest is recomputed from the checkpoint bytes and any
// disagreement rejects the publish (ErrManifestMismatch,
// serve.manifest_rejects). A nil manifest degrades to plain Publish — the
// version still records the registry-computed digest, so the /modelz chain
// stays digest-complete even for feeds that attach none.
func (r *Registry) PublishManifest(seq int64, source string, ckpt []byte, man *lineage.Manifest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur != nil && seq <= cur.Seq {
		r.stale.Inc()
		return fmt.Errorf("%w: seq %d <= current %d", ErrStaleVersion, seq, cur.Seq)
	}
	// Validate against the spec's layout (model name, every parameter once
	// at its length) and digest the weights in the same pass, before any
	// runner sees them.
	digest, err := lineage.CheckpointHash(r.layout, ckpt)
	if err != nil {
		r.rejected.Inc()
		return fmt.Errorf("serve: reject version %d from %s: %w", seq, source, err)
	}
	if man != nil {
		if err := man.Validate(); err != nil {
			r.manRejects.Inc()
			return fmt.Errorf("serve: reject version %d from %s: %w", seq, source, err)
		}
		if man.Digest != digest {
			r.manRejects.Inc()
			return fmt.Errorf("%w: version %d from %s: manifest digest %s, checkpoint decodes to %s",
				ErrManifestMismatch, seq, source, man.Digest, digest)
		}
	}
	v := &Version{Seq: seq, Source: source, At: time.Now(), Ckpt: ckpt,
		Digest: digest, Manifest: man}
	r.chain = append(r.chain, ChainEntry{
		Seq: v.Seq, Source: v.Source, At: v.At, Digest: digest, Manifest: man,
	})
	if len(r.chain) > chainMax {
		r.chain = append(r.chain[:0], r.chain[len(r.chain)-chainMax:]...)
	}
	r.cur.Store(v)
	r.nswaps.Add(1)
	r.swaps.Inc()
	r.seqGauge.Set(seq)
	return nil
}

// Chain returns a copy of the retained version history, oldest first. Seq
// is strictly increasing across the slice — publishes are serialized and
// stale sequences never enter the chain.
func (r *Registry) Chain() []ChainEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ChainEntry, len(r.chain))
	copy(out, r.chain)
	return out
}

// --- weight-update broadcast framing ---

// WeightsChannel is the queue PUB/SUB channel training workers publish
// checkpoint updates on and serving registries subscribe to (the serving
// analogue of the prototype's Redis control channels, §4.2).
const WeightsChannel = "dlion:serve:weights"

// updateMagic brands a weight-update frame ("DLS2"): magic, u64 seq, u32
// manifest length, the manifest as lineage.EncodeJSON writes it, then the
// checkpoint. A manifest length of 0 means the frame carries none.
var updateMagic = [4]byte{'D', 'L', 'S', '2'}

// updateHeader is the frame's fixed prefix: magic, seq, manifest length.
const updateHeader = 16

// ErrBadUpdate reports a structurally invalid weight-update frame.
var ErrBadUpdate = errors.New("serve: bad weight update")

// EncodeUpdateManifest frames a checkpoint and its lineage manifest (nil
// for none) for broadcast on WeightsChannel.
func EncodeUpdateManifest(seq int64, man *lineage.Manifest, ckpt []byte) ([]byte, error) {
	var mb []byte
	if man != nil {
		var err error
		if mb, err = lineage.EncodeJSON(man); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, updateHeader+len(mb)+len(ckpt))
	buf = append(buf, updateMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seq))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mb)))
	buf = append(buf, mb...)
	return append(buf, ckpt...), nil
}

// DecodeUpdateAny parses a frame produced by EncodeUpdateManifest. The
// manifest is nil when the frame carries none; the checkpoint slice
// aliases p.
func DecodeUpdateAny(p []byte) (seq int64, man *lineage.Manifest, ckpt []byte, err error) {
	if len(p) < updateHeader || [4]byte(p[:4]) != updateMagic {
		return 0, nil, nil, fmt.Errorf("%w: missing magic", ErrBadUpdate)
	}
	seq = int64(binary.LittleEndian.Uint64(p[4:]))
	mlen := uint64(binary.LittleEndian.Uint32(p[12:]))
	if mlen > uint64(len(p)-updateHeader) {
		return 0, nil, nil, fmt.Errorf("%w: manifest length %d in %d-byte frame",
			ErrBadUpdate, mlen, len(p))
	}
	end := updateHeader + int(mlen)
	if mlen > 0 {
		if man, err = lineage.DecodeJSON(p[updateHeader:end]); err != nil {
			return 0, nil, nil, fmt.Errorf("%w: %v", ErrBadUpdate, err)
		}
	}
	return seq, man, p[end:], nil
}
