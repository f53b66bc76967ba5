package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dlion/internal/lineage"
	"dlion/internal/nn"
)

// CheckpointSuffix is the file extension WatchDir considers a checkpoint.
const CheckpointSuffix = ".ckpt"

// WatchDir polls dir every interval and publishes the newest *.ckpt file
// (by modification time, then name) into the registry whenever it changes.
// The file's mtime in nanoseconds is the version sequence, so an older
// file reappearing cannot roll the server back. It runs until ctx is done.
//
// Partially-written files never reach the registry: a zero-length or
// structurally torn checkpoint (nn.ScanCheckpoint fails — a writer's
// truncated tail, a mid-write snapshot) is skipped without attempting a
// swap, and because the skip does not mark the file as seen, the completed
// file is retried on the next poll. A sidecar manifest
// (<file>.ckpt.manifest.json, see lineage.WriteFile) is attached when
// present and readable; the registry then verifies its digest against the
// decoded weights.
//
// Use either WatchDir or WatchBroadcasts as a registry's feed, not both:
// the two derive sequences from different clocks (file mtimes vs training
// iterations), so mixing them would make ordering meaningless.
func (r *Registry) WatchDir(ctx context.Context, dir string, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	var lastName string
	var lastMod time.Time
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if name, mod, ok := newestCheckpoint(dir); ok && (name != lastName || mod.After(lastMod)) {
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err == nil {
				err = nn.ScanCheckpoint(data) // the pre-swap gate: a mid-write file never reaches the registry
			}
			if err == nil {
				man, err := lineage.ReadFile(path)
				if err != nil {
					man = nil // no sidecar (or a torn one): publish bare
				}
				if err := r.PublishManifest(mod.UnixNano(), "dir:"+name, data, man); err == nil {
					lastName, lastMod = name, mod
				}
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// newestCheckpoint returns the most recent checkpoint file in dir.
func newestCheckpoint(dir string) (name string, mod time.Time, ok bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", time.Time{}, false
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), CheckpointSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if !ok || info.ModTime().After(mod) || (info.ModTime().Equal(mod) && e.Name() > name) {
			name, mod, ok = e.Name(), info.ModTime(), true
		}
	}
	return name, mod, ok
}

// WatchBroadcasts consumes weight-update frames (EncodeUpdate or
// EncodeUpdateManifest) from ch — an in-process broker Subscription.C or a
// queue client's Subscribe channel on WeightsChannel — publishing each into
// the registry until ch closes or ctx is done. Malformed frames and stale
// versions are dropped; with several workers broadcasting, the registry's
// strictly-increasing sequence rule arbitrates, so the cluster's freshest
// checkpoint wins regardless of arrival order. Manifest-carrying frames
// attach their lineage record to the published version.
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
				continue
			}
			_ = r.PublishManifest(seq, "broadcast", ckpt, man)
		}
	}
}
