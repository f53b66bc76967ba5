package realtime

import (
	"context"

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

// ClientTransport connects a node to a TCP broker (cmd/dlion-broker), for
// workers running as separate processes. Its queue.Clients reconnect by
// themselves, so a broker restart or transient TCP failure stalls the
// node's traffic and then recovers instead of killing the node: Send
// retries with backoff and Recv resumes its blocking pop on the new
// connection.
//
// Sends and receives use separate clients. A Client serializes its
// requests on one conn, and the receive side parks a blocking BRPop there
// indefinitely — sharing it would wedge every LPush behind the pop (and
// with every node wedged the same way, no message would ever flow at all).
// Dedicated connections for blocking pops are standard Redis practice for
// the same reason.
type ClientTransport struct {
	send *queue.Client
	recv *queue.Client
	id   int
	ns   queue.Namespace
}

// NewClientTransport builds a transport for worker id against the broker
// at addr, in the root namespace. It fails only on an address that is not
// a host:port: the connections are established lazily, so the broker may
// come up after the worker.
func NewClientTransport(addr string, id int) (*ClientTransport, error) {
	return NewClientTransportNS(addr, id, "")
}

// NewClientTransportNS builds a TCP transport whose data keys live inside
// ns — how an external dlion-worker process attaches to one control-plane
// job's channels on a shared broker (the -job flag).
func NewClientTransportNS(addr string, id int, ns queue.Namespace) (*ClientTransport, error) {
	send, err := queue.Dial(addr)
	if err != nil {
		return nil, err
	}
	recv, err := queue.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &ClientTransport{send: send, recv: recv, id: id, ns: ns}, nil
}

// SetMetrics wires both clients' retry counters into reg (shared
// queue.reconnect_attempts counter).
func (t *ClientTransport) SetMetrics(reg *obs.Registry) {
	t.send.SetMetrics(reg)
	t.recv.SetMetrics(reg)
}

// Send implements Transport. The broker process reads its own copy off the
// socket, so once the write (with its reconnect retries) has returned, this
// was the frame's last reader and recycles it.
func (t *ClientTransport) Send(to int, payload []byte) error {
	err := t.send.LPush(t.ns.DataKey(to), payload)
	bufpool.Bytes.Put(payload)
	return err
}

// Publish broadcasts payload on one of the broker's PUB/SUB channels,
// riding the send connection (publishes are fire-and-forget requests, so
// they share it safely; only blocking pops need a dedicated conn).
func (t *ClientTransport) Publish(channel string, payload []byte) error {
	return t.send.Publish(channel, payload)
}

// Recv implements Transport. Its pop has no timeout, so it blocks across
// broker outages and returns an error only once the transport itself is
// closed.
func (t *ClientTransport) Recv() ([]byte, error) {
	return t.recv.BRPop(t.ns.DataKey(t.id), 0)
}

// Close implements Transport.
func (t *ClientTransport) Close() error {
	sendErr := t.send.Close()
	if err := t.recv.Close(); err != nil {
		return err
	}
	return sendErr
}
