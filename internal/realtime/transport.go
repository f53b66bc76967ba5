package realtime

import (
	"context"
	"net"
	"sync"

	"dlion/internal/bufpool"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

// BrokerTransport connects a node to the data lists of the prototype's
// Redis (§4.2): this worker's list lives in a queue.Broker, where Recv pops
// it, and Send pushes to each peer's list wherever a register says it is.
// The first frame to a peer looks the peer up and waits until it is
// registered: an empty value is a list in this transport's own broker,
// which Send pushes in process; an address is a server, reached one hop
// away through a queue.Client kept for that peer, which looks the peer up
// again, without waiting, whenever its connection breaks (a restarted peer
// serves on a new port). A peer that is not registered then fails the
// send, so the frame is dropped, like the one its broken connection lost:
// delivery over a hop stays at-most-once, as queue.Client documents.
type BrokerTransport struct {
	b        *queue.Broker
	id       int
	ns       queue.Namespace
	lookup   func(ctx context.Context, key string, wait bool) (string, error)
	release  func() // this worker's register key
	ctx      context.Context
	cancel   context.CancelFunc
	waits    context.Context // first lookups' waits; ends with ctx or stopWaiting
	endWaits context.CancelFunc

	mu     sync.Mutex
	routes map[int]*queue.Client // per resolved peer; nil for a list in b. nil once closed
	reg    *obs.Registry
}

// NewBrokerTransport builds a transport for worker id over broker b with its
// data keys inside ns ("" is the root namespace), so several worker groups —
// one per control-plane job — share one broker without cross-delivery. It
// holds the worker's key in b's register empty, so its peers in b push to
// its list in process and a ClientTransport peer's lookup names b's server;
// Close releases the key.
func NewBrokerTransport(b *queue.Broker, id int, ns queue.Namespace) *BrokerTransport {
	return newBrokerTransport(b, id, ns, func(ctx context.Context, key string, wait bool) (string, error) {
		if !wait { // Get with an ended ctx still returns a value already set
			var now context.CancelFunc
			ctx, now = context.WithCancel(ctx)
			now()
		}
		v, err := b.Get(ctx, key)
		return string(v), err
	})
}

// newBrokerTransport is NewBrokerTransport with the peers looked up through
// lookup.
func newBrokerTransport(b *queue.Broker, id int, ns queue.Namespace, lookup func(context.Context, string, bool) (string, error)) *BrokerTransport {
	t := &BrokerTransport{b: b, id: id, ns: ns, lookup: lookup,
		release: b.Set(ns.AddrKey(id), nil), routes: map[int]*queue.Client{}}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	t.waits, t.endWaits = context.WithCancel(t.ctx)
	return t
}

// Send implements Transport. In process, the slice itself goes into the
// peer's list and its pump recycles it. Over a hop, the peer's server reads
// its own copy off the socket, so once the write (with its re-resolve and
// reconnect retries) has returned, Send was the frame's last reader and
// recycles it.
func (t *BrokerTransport) Send(to int, payload []byte) error {
	c, err := t.route(to)
	if err == nil {
		if c == nil {
			return t.b.LPush(t.ns.DataKey(to), payload)
		}
		err = c.LPush(t.ns.DataKey(to), payload)
	}
	bufpool.Bytes.Put(payload)
	return err
}

// route returns the client that reaches worker to's list, or nil for a list
// in t's broker, looking the worker up on first use. The lookup waits until
// the worker is registered, t closes or stopWaiting is called; after
// stopWaiting it does not wait.
func (t *BrokerTransport) route(to int) (*queue.Client, error) {
	t.mu.Lock()
	c, ok := t.routes[to]
	t.mu.Unlock()
	if ok {
		return c, nil
	}
	key := t.ns.AddrKey(to)
	ctx, wait := t.waits, t.waits.Err() == nil
	if !wait {
		ctx = t.ctx
	}
	addr, err := t.lookup(ctx, key, wait)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.routes == nil {
		return nil, queue.ErrClosed
	}
	if c, ok := t.routes[to]; ok { // another Send resolved it meanwhile
		return c, nil
	}
	if addr != "" {
		c = queue.DialFunc(func(ctx context.Context) (string, error) { return t.lookup(ctx, key, false) })
		c.SetMetrics(t.reg)
	}
	t.routes[to] = c
	return c, nil
}

// stopWaiting ends the lookups waiting for a peer to register, and later
// lookups answer at once. Node.Run calls it on exit, so its last frames to a
// peer that never registered, or has left, are dropped instead of holding
// up the drain.
func (t *BrokerTransport) stopWaiting() { t.endWaits() }

// setMetrics wires the peers' clients' retry counters into reg (the shared
// queue.reconnect_attempts counter).
func (t *BrokerTransport) setMetrics(reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg = reg
	for _, c := range t.routes {
		if c != nil {
			c.SetMetrics(reg)
		}
	}
}

// Recv implements Transport.
func (t *BrokerTransport) Recv() ([]byte, error) {
	return t.b.BRPop(t.ctx, t.ns.DataKey(t.id))
}

// Close implements Transport. It ends a Recv or a lookup still waiting,
// closes the peers' clients and releases this worker's register key; a
// later Send fails with queue.ErrClosed.
func (t *BrokerTransport) Close() error {
	t.cancel()
	t.mu.Lock()
	routes := t.routes
	t.routes = nil
	t.mu.Unlock()
	for _, c := range routes {
		if c != nil {
			c.Close()
		}
	}
	t.release()
	return nil
}

// ClientTransport is a BrokerTransport over a broker of its own, for
// workers running as separate processes: it serves its list behind a
// queue.Server on the local IP of its connection to a TCP broker
// (cmd/dlion-broker) and an ephemeral port, holds that host:port in the
// broker's register under its namespace's AddrKey, and looks its peers up
// there (queue.Lookup). The broker keeps PUB/SUB and the register, so once
// peers are resolved their frames keep flowing while it is down.
//
// Every client reconnects by itself, so a broker restart stalls traffic and
// then recovers instead of killing the node: the hold sets the address
// again on a restarted broker.
type ClientTransport struct {
	*BrokerTransport
	ctl *queue.Client // the broker: publishes and this worker's address

	mu  sync.Mutex
	srv *queue.Server // serves the list; nil until the first broker connection names the local IP
}

// NewClientTransport builds a transport for worker id against the broker
// at addr, in the root namespace. It fails only on an address that is not
// a host:port: the connections are established lazily, so the broker may
// come up after the worker.
func NewClientTransport(addr string, id int) (*ClientTransport, error) {
	return NewClientTransportNS(addr, id, "")
}

// NewClientTransportNS builds a TCP transport whose keys live inside ns —
// how an external dlion-worker process attaches to one control-plane job
// on a shared broker (the -job flag).
func NewClientTransportNS(addr string, id int, ns queue.Namespace) (*ClientTransport, error) {
	ctl, err := queue.Dial(addr)
	if err != nil {
		return nil, err
	}
	t := &ClientTransport{ctl: ctl, BrokerTransport: newBrokerTransport(queue.NewBroker(), id, ns,
		func(ctx context.Context, key string, wait bool) (string, error) {
			return queue.Lookup(ctx, addr, key, wait)
		})}
	ctl.Hold(ns.AddrKey(id), t.serve)
	return t, nil
}

// serve returns the address this worker's list is served on, starting the
// server on the first call, on the IP the broker connection left from.
func (t *ClientTransport) serve(local net.Addr) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.srv == nil {
		host, _, err := net.SplitHostPort(local.String())
		if err != nil {
			return nil, err
		}
		if t.srv, err = queue.Serve(t.b, net.JoinHostPort(host, "0")); err != nil {
			return nil, err
		}
	}
	return []byte(t.srv.Addr()), nil
}

// SetMetrics wires the clients' retry counters into reg (shared
// queue.reconnect_attempts counter) and this worker's list into its
// queue.list_depth gauge.
func (t *ClientTransport) SetMetrics(reg *obs.Registry) {
	t.ctl.SetMetrics(reg)
	t.b.SetMetrics(reg)
	t.setMetrics(reg)
}

// Publish broadcasts payload on one of the broker's PUB/SUB channels.
func (t *ClientTransport) Publish(channel string, payload []byte) error {
	return t.ctl.Publish(channel, payload)
}

// Close implements Transport. It ends every connection, the server and its
// goroutines, and releases this worker's address at the broker.
func (t *ClientTransport) Close() error {
	t.BrokerTransport.Close()
	err := t.ctl.Close() // the hold has stopped: srv is settled
	if t.srv != nil {
		t.srv.Close()
	}
	t.b.Close()
	return err
}
