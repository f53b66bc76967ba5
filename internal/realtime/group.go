package realtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dlion/internal/core"
	"dlion/internal/lineage"
)

// flushTimeout bounds a stopped node's send-FIFO drain before its transport closes.
const flushTimeout = 2 * time.Second

// Group runs n nodes as one unit, as the prototype runs a micro-cloud's
// workers over shared broker queues (§4.2), and owns their transports: every
// exit of Run waits for each node, flushes its send FIFOs and closes its
// transport, so no receive pump outlives the group to take a later group's
// frames. A node that stops while the group runs has crashed; it is rebuilt
// and restored from its last Checkpoint while the restart budget lasts, and
// rejoins through another running node as a joiner is admitted (HELLO,
// then the WELCOME's roster, iteration and weights).
type Group struct {
	build       func(i int) (Config, error)
	maxRestarts int
	life        context.Context // ends when Run does; parents every incarnation
	end         context.CancelFunc

	mu       sync.Mutex
	running  bool
	idle     sync.WaitGroup // direct Inspects in flight, which Run waits out
	restarts int
	nodes    []*Node              // the current incarnations
	ctxs     []context.Context    // their Run contexts, ended by Crash
	cancels  []context.CancelFunc // and their cancels
	ckpts    [][]byte             // restart points, recorded by Checkpoint
	mans     []*lineage.Manifest  // lineage chain heads, across incarnations
}

// NewGroup builds node i of n from build(i), which hands over the transport
// of every Config it returns without error; if a node fails to build, the
// transports already built are closed. Run calls build again for each of
// the maxRestarts crash restarts the group may spend.
func NewGroup(n int, build func(i int) (Config, error), maxRestarts int) (*Group, error) {
	g := &Group{build: build, maxRestarts: maxRestarts, nodes: make([]*Node, n), ctxs: make([]context.Context, n),
		cancels: make([]context.CancelFunc, n), ckpts: make([][]byte, n), mans: make([]*lineage.Manifest, n)}
	g.life, g.end = context.WithCancel(context.Background())
	for i := range g.nodes {
		nd, err := g.newNode(i, nil, -1)
		if err != nil {
			for _, built := range g.nodes[:i] {
				built.cfg.Transport.Close()
			}
			return nil, err
		}
		g.install(i, nd)
	}
	return g, nil
}

// install makes nd node i's incarnation, with a Run context Crash can end.
func (g *Group) install(i int, nd *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[i] = nd
	g.ctxs[i], g.cancels[i] = context.WithCancel(g.life)
}

// newNode builds node i's next incarnation with ckpt restored into its
// model; with a sponsor (>= 0) the incarnation joins through it.
func (g *Group) newNode(i int, ckpt []byte, sponsor int) (*Node, error) {
	cfg, err := g.build(i)
	if err != nil {
		return nil, err
	}
	if sponsor >= 0 {
		m := &cfg.System.Membership
		m.Join, m.Sponsor, m.InitialMembers = true, sponsor, nil
	}
	nd, err := NewNode(cfg)
	if err == nil && ckpt != nil {
		err = nd.worker.Model().Restore(ckpt)
	}
	if err != nil {
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return nil, fmt.Errorf("realtime: node %d: %w", i, err)
	}
	return nd, nil
}

// Run runs every node until ctx is done and returns once all have stopped
// and released their transports. A crash past the restart budget, or a
// restart that fails to build, stops the whole group with an error. Run is
// one-shot.
func (g *Group) Run(ctx context.Context) error {
	defer context.AfterFunc(ctx, g.end)()
	defer g.end()
	g.mu.Lock()
	g.running = true
	g.mu.Unlock()
	g.idle.Wait()
	errs := make([]error, len(g.nodes))
	var wg sync.WaitGroup
	for i := range g.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = g.runNode(i); errs[i] != nil {
				g.end()
			}
		}()
	}
	wg.Wait()
	g.mu.Lock()
	g.running = false
	g.mu.Unlock()
	return errors.Join(errs...)
}

// runNode runs node i's incarnations one after another until the group ends.
func (g *Group) runNode(i int) error {
	for {
		g.mu.Lock()
		nd, ctx := g.nodes[i], g.ctxs[i]
		g.mu.Unlock()
		err := nd.Run(ctx)
		nd.FlushSends(flushTimeout)
		nd.cfg.Transport.Close()
		if g.life.Err() != nil {
			return nil
		}
		g.mu.Lock()
		spent := g.restarts >= g.maxRestarts
		if !spent {
			g.restarts++
		}
		ckpt, sponsor := g.ckpts[i], -1
		for j, other := range g.nodes { // the lowest other running node admits it
			if j != i && g.ctxs[j].Err() == nil {
				sponsor = other.cfg.ID
				break
			}
		}
		g.mu.Unlock()
		if spent {
			if err == nil {
				err = errors.New("stopped early")
			}
			return fmt.Errorf("realtime: node %d: restart budget (%d) spent: %w", i, g.maxRestarts, err)
		}
		if nd, err = g.newNode(i, ckpt, sponsor); err != nil {
			return err
		}
		g.install(i, nd)
	}
}

// Inspect runs fn on node i's event loop, with Node.Inspect's contract.
// While the group is not running — before Run, which waits for such calls,
// or once it has returned — every worker is quiescent and fn runs directly,
// on the caller's goroutine.
func (g *Group) Inspect(ctx context.Context, i int, fn func(w *core.Worker)) error {
	g.mu.Lock()
	nd, running := g.nodes[i], g.running
	if !running {
		g.idle.Add(1)
	}
	g.mu.Unlock()
	if running {
		return nd.Inspect(ctx, fn)
	}
	defer g.idle.Done()
	nd.worker.JoinStep()
	fn(nd.worker)
	return nil
}

// Checkpoint snapshots running node i (Node.CheckpointManifest) and records
// the checkpoint as its restart point. The manifest chains to the node's
// previous one across incarnations; a snapshot at no newer iteration cannot
// extend the chain, so the previous head stays and Checkpoint returns it.
func (g *Group) Checkpoint(ctx context.Context, i int) (int64, []byte, *lineage.Manifest, error) {
	g.mu.Lock()
	nd, parent := g.nodes[i], g.mans[i]
	g.mu.Unlock()
	iter, ckpt, man, err := nd.CheckpointManifest(ctx, parent)
	if err != nil {
		return 0, nil, nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ckpts[i] = ckpt
	if g.mans[i] == nil || man.Iter > g.mans[i].Iter {
		g.mans[i] = man
	}
	return iter, ckpt, g.mans[i], nil
}

// Crash ends node i's current incarnation, as if its process died; before
// Run, the incarnation crashes as it starts.
func (g *Group) Crash(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.nodes) || g.ctxs[i].Err() != nil {
		return fmt.Errorf("realtime: no live node %d", i)
	}
	g.cancels[i]()
	return nil
}

// Restarts counts the crash restarts the group has spent.
func (g *Group) Restarts() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.restarts
}
