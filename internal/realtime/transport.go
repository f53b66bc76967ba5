package realtime

import (
	"context"
	"net"
	"sync"

	"dlion/internal/bufpool"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

// BrokerTransport connects a node to an in-process broker: sends LPush to
// the destination's data list; Recv blocks on this node's own list.
// It mirrors the prototype's Redis data-queue usage (§4.2).
type BrokerTransport struct {
	b      *queue.Broker
	id     int
	ns     queue.Namespace
	ctx    context.Context
	cancel context.CancelFunc
}

// NewBrokerTransport builds a transport for worker id over broker b with its
// data keys inside ns ("" is the root namespace), so several worker groups —
// one per control-plane job — share one broker without cross-delivery.
func NewBrokerTransport(b *queue.Broker, id int, ns queue.Namespace) *BrokerTransport {
	ctx, cancel := context.WithCancel(context.Background())
	return &BrokerTransport{b: b, id: id, ns: ns, ctx: ctx, cancel: cancel}
}

// Send implements Transport. The slice itself travels through the broker to
// the receiving node, so ownership only passes through here: the receiver's
// pump recycles the frame.
func (t *BrokerTransport) Send(to int, payload []byte) error {
	return t.b.LPush(t.ns.DataKey(to), payload)
}

// Recv implements Transport.
func (t *BrokerTransport) Recv() ([]byte, error) {
	return t.b.BRPop(t.ctx, t.ns.DataKey(t.id))
}

// Close implements Transport.
func (t *BrokerTransport) Close() error {
	t.cancel()
	return nil
}

// HostedTransport is BrokerTransport for a worker whose data list lives in
// the broker of a process that also serves that broker over TCP: the
// control plane's in-process workers, in a job with slots for external
// joiners. Frames to the workers the broker hosts, ids [0, hosted), stay in
// the broker. Its register holds each hosted worker's key empty, which
// tells an external ClientTransport's lookup to push to the broker itself;
// frames to any other id go one hop to the server that worker holds in the
// register, found there again whenever the connection breaks.
type HostedTransport struct {
	*BrokerTransport
	hosted  int
	release func()
	peers   peers
}

// NewHostedTransport builds the transport of hosted worker id over broker b
// with its keys inside ns. Close releases the worker's register key.
func NewHostedTransport(b *queue.Broker, id int, ns queue.Namespace, hosted int) *HostedTransport {
	return &HostedTransport{BrokerTransport: NewBrokerTransport(b, id, ns), hosted: hosted,
		release: b.Set(ns.AddrKey(id), nil),
		peers: peers{ns: ns, lookup: func(ctx context.Context, key string) (string, error) {
			v, err := b.Get(ctx, key)
			return string(v), err
		}}}
}

// Send implements Transport.
func (t *HostedTransport) Send(to int, payload []byte) error {
	if to < t.hosted {
		return t.BrokerTransport.Send(to, payload)
	}
	return t.peers.push(to, payload)
}

// Close implements Transport.
func (t *HostedTransport) Close() error {
	t.peers.close()
	t.release()
	return t.BrokerTransport.Close()
}

// ClientTransport connects a node to a TCP broker (cmd/dlion-broker), for
// workers running as separate processes. Data takes one hop: each
// transport serves its own data list (a BrokerTransport over an embedded
// queue.Broker, behind a queue.Server on the local IP of its broker
// connection and an ephemeral port) and holds that host:port in the
// broker's register under its namespace's AddrKey. Send resolves each peer
// there once and keeps one queue.Client per peer, which pushes straight
// into the peer's list; Recv pops this worker's own list in process. The
// broker keeps PUB/SUB and the register, so once peers are resolved their
// frames keep flowing while it is down.
//
// Every client reconnects by itself, so a restart stalls traffic and then
// recovers instead of killing the node: the hold sets the address again on
// a restarted broker, and a peer connection that broke looks the peer up
// again, since a restarted peer serves on a new port. Delivery stays
// at-most-once, as queue.Client documents.
type ClientTransport struct {
	*BrokerTransport               // over inbox: Recv
	inbox            *queue.Broker // this worker's data list
	ctl              *queue.Client // the broker: publishes and this worker's address
	peers            peers

	mu  sync.Mutex
	srv *queue.Server // serves inbox; nil until the first broker connection names the local IP
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
	inbox := queue.NewBroker()
	t := &ClientTransport{BrokerTransport: NewBrokerTransport(inbox, id, ns), inbox: inbox, ctl: ctl,
		peers: peers{ns: ns, lookup: func(ctx context.Context, key string) (string, error) {
			return queue.Lookup(ctx, addr, key)
		}}}
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
		if t.srv, err = queue.Serve(t.inbox, net.JoinHostPort(host, "0")); err != nil {
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
	t.inbox.SetMetrics(reg)
	t.peers.setMetrics(reg)
}

// Send implements Transport.
func (t *ClientTransport) Send(to int, payload []byte) error {
	return t.peers.push(to, payload)
}

// Publish broadcasts payload on one of the broker's PUB/SUB channels.
func (t *ClientTransport) Publish(channel string, payload []byte) error {
	return t.ctl.Publish(channel, payload)
}

// Close implements Transport. It ends every connection, the server and its
// goroutines, and releases this worker's address at the broker.
func (t *ClientTransport) Close() error {
	t.BrokerTransport.Close()
	t.peers.close()
	err := t.ctl.Close() // the hold has stopped: srv is settled
	if t.srv != nil {
		t.srv.Close()
	}
	t.inbox.Close()
	return err
}

// peers keeps one queue.Client per destination worker, made on first use,
// which looks the worker's address up under its AddrKey before each dial
// and pushes into its served data list.
type peers struct {
	ns     queue.Namespace
	lookup func(ctx context.Context, key string) (string, error)

	mu     sync.Mutex
	m      map[int]*queue.Client
	reg    *obs.Registry
	closed bool
}

// push sends payload to worker to's list. The worker's server reads its own
// copy off the socket, so once the write (with its re-resolve and reconnect
// retries) has returned, this was the frame's last reader and recycles it.
func (p *peers) push(to int, payload []byte) error {
	c, err := p.client(to)
	if err == nil {
		err = c.LPush(p.ns.DataKey(to), payload)
	}
	bufpool.Bytes.Put(payload)
	return err
}

func (p *peers) client(to int) (*queue.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, queue.ErrClosed
	}
	c := p.m[to]
	if c == nil {
		key := p.ns.AddrKey(to)
		c = queue.DialFunc(func(ctx context.Context) (string, error) { return p.lookup(ctx, key) })
		if p.reg != nil {
			c.SetMetrics(p.reg)
		}
		if p.m == nil {
			p.m = map[int]*queue.Client{}
		}
		p.m[to] = c
	}
	return c, nil
}

func (p *peers) setMetrics(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	for _, c := range p.m {
		c.SetMetrics(reg)
	}
}

// close closes every client; a later push fails with queue.ErrClosed.
func (p *peers) close() {
	p.mu.Lock()
	p.closed = true
	m := p.m
	p.m = nil
	p.mu.Unlock()
	for _, c := range m {
		c.Close()
	}
}
