package queue

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"dlion/internal/bufpool"
	"dlion/internal/obs"
)

// Wire protocol: each request frame is
//
//	[1B cmd][2B keyLen][key][4B payloadLen][payload]
//
// cmdPublish, cmdLPush and cmdSet have no response. cmdBRPop and cmdGet
// carry an 8-byte little-endian timeout in milliseconds as payload and
// receive a response frame [1B status][4B len][payload] (status 0 = ok,
// 1 = timeout); a wait that the server or broker closing ends gets no
// response, only a dropped connection. cmdSet stores its payload in the
// broker's register for as long as the connection that sent it stays open.
// After cmdSubscribe the connection becomes push-only: the server streams
// [4B len][payload] frames until either side closes, mirroring Redis's
// dedicated-subscriber-connection model.
const (
	cmdPublish = 1
	cmdLPush   = 2
	cmdBRPop   = 3
	cmdSub     = 4
	cmdSet     = 5
	cmdGet     = 6
)

const (
	maxFrame = 64 << 20
	maxKey   = 4096
)

// Server exposes a Broker over TCP.
type Server struct {
	broker *Broker
	ln     net.Listener
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a TCP server for b on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns once listening.
func Serve(b *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{broker: b, ln: ln, conns: map[net.Conn]struct{}{}}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections. The broker itself is
// left open (it may be shared).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// request is one parsed request frame.
type request struct {
	cmd     byte
	key     string
	payload []byte
}

// handle executes one connection's requests, every one its reader parsed.
// The reader ends the connection's context when the peer hangs up: a BRPOP
// parked for a consumer that has gone stops waiting, instead of taking the
// next frame pushed to its list, and the register keys the connection set
// are released. Once nobody is left to answer — a wait ended without an
// answer, a write failed, the protocol broke or the connection subscribed —
// handle closes the connection, which stops the reader, and runs only the
// requests already read that need no answer.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	reqs := make(chan request)
	s.wg.Add(1)
	go s.read(cancel, conn, reqs)
	held := map[string]func(){} // this connection's register keys
	defer func() {
		for _, release := range held {
			release()
		}
	}()
	var hdr []byte // response/push header scratch, reused across frames
	answering := true
	for req := range reqs {
		switch req.cmd {
		case cmdPublish:
			s.broker.Publish(req.key, req.payload)
		case cmdLPush:
			s.broker.LPush(req.key, req.payload)
		case cmdSet:
			held[req.key] = s.broker.Set(req.key, req.payload)
		case cmdBRPop, cmdGet:
			answering = answering && s.answer(ctx, conn, req, &hdr)
		case cmdSub:
			if answering {
				s.servePush(ctx, conn, req.key)
			}
			answering = false
		default:
			answering = false
		}
		if !answering {
			conn.Close()
		}
	}
}

// answer executes a BRPOP or GET and writes its response. It reports false
// when there is nobody to answer any more.
func (s *Server) answer(ctx context.Context, conn net.Conn, req request, hdr *[]byte) bool {
	if len(req.payload) != 8 {
		return false
	}
	timeout := time.Duration(binary.LittleEndian.Uint64(req.payload)) * time.Millisecond
	wait, stop := contextWithOptionalTimeout(ctx, timeout)
	pop, get := req.cmd == cmdBRPop, s.broker.Get
	if pop {
		get = s.broker.BRPop
	}
	data, err := get(wait, req.key)
	stop()
	status := byte(0)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = 1
	case err != nil:
		// The consumer left, or the server or broker is closing: there is
		// nobody to answer, and no timeout to report.
		return false
	case ctx.Err() != nil:
		// Popped at the instant the consumer left or the server began
		// closing: the next consumer gets the frame.
		if pop {
			s.broker.requeue(req.key, data)
		}
		return false
	}
	*hdr = lenHeader(append((*hdr)[:0], status), data)
	if err := writeFrame(conn, *hdr, data); err != nil {
		// An incomplete write delivered no frame.
		if pop && data != nil {
			s.broker.requeue(req.key, data)
		}
		return false
	}
	if pop {
		// The pop made this handler the frame's owner and the response was
		// its last use. A register value stays the broker's.
		bufpool.Bytes.Put(data)
	}
	return true
}

// read parses conn's requests until the peer hangs up or breaks the
// protocol, or the connection closes, and then ends the connection's
// context. handle takes every request it parsed.
func (s *Server) read(cancel context.CancelFunc, conn net.Conn, reqs chan<- request) {
	defer s.wg.Done()
	defer cancel()
	defer close(reqs)
	r := bufio.NewReader(conn)
	for {
		cmd, key, payload, err := readRequest(r)
		if err != nil {
			return
		}
		reqs <- request{cmd, key, payload}
	}
}

// servePush streams channel's publishes to a subscriber until it hangs up
// (the subscriber sends nothing more, so the reader sees EOF) or the
// server closes.
func (s *Server) servePush(ctx context.Context, conn net.Conn, channel string) {
	sub, err := s.broker.Subscribe(channel, 256)
	if err != nil {
		return
	}
	defer sub.Cancel()
	hdr := make([]byte, 0, 4)
	for {
		select {
		case p, ok := <-sub.C:
			if !ok {
				return
			}
			// p is shared with the channel's other subscribers: never recycled.
			if err := writeFrame(conn, lenHeader(hdr[:0], p), p); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// contextWithOptionalTimeout returns parent bounded by d, or parent itself
// when d <= 0 (BRPOP with timeout 0 blocks until the consumer leaves or the
// server shuts down, like Redis blocks forever).
func contextWithOptionalTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// readRequest reads one request frame. Headers are decoded in place from
// the bufio buffer (Peek, then a Discard of the same length, which cannot
// fail), so the only allocations are the key string and the payload. An LPUSH payload comes from the frame free list:
// it is about to be owned by the broker and recycled by whoever pops it
// last. PUBLISH payloads are shared by subscribers, a SET value is kept by
// the register, and BRPOP/GET/SUBSCRIBE payloads are tiny, so those are
// plain allocations. Every length is checked against its bound before it
// sizes anything.
func readRequest(r *bufio.Reader) (cmd byte, key string, payload []byte, err error) {
	b, err := r.Peek(3)
	if err != nil {
		return 0, "", nil, err
	}
	cmd = b[0]
	klen := int(binary.LittleEndian.Uint16(b[1:]))
	r.Discard(3)
	if klen > maxKey {
		return 0, "", nil, errors.New("queue: key too long")
	}
	if b, err = r.Peek(klen); err != nil {
		return 0, "", nil, err
	}
	key = string(b)
	r.Discard(klen)
	if b, err = r.Peek(4); err != nil {
		return 0, "", nil, err
	}
	plen := binary.LittleEndian.Uint32(b)
	r.Discard(4)
	if plen > maxFrame {
		return 0, "", nil, fmt.Errorf("queue: payload %d exceeds limit", plen)
	}
	if cmd == cmdLPush {
		payload = bufpool.Bytes.Get(int(plen))
	} else {
		payload = make([]byte, plen)
	}
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, "", nil, err
	}
	return cmd, key, payload, nil
}

// writeFrame writes a frame's header and payload with one vectored write
// (net.Buffers: writev on a TCP conn), so a megabyte payload is never copied
// through a staging buffer. hdr is the caller's reusable scratch.
func writeFrame(conn net.Conn, hdr, payload []byte) error {
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// lenHeader appends a payload's 4-byte length, the field that ends every
// frame header.
func lenHeader(hdr, payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
}

// requestHeader appends a request frame's header to hdr.
func requestHeader(hdr []byte, cmd byte, key string, payload []byte) []byte {
	hdr = append(hdr, cmd)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(key)))
	hdr = append(hdr, key...)
	return lenHeader(hdr, payload)
}

// Redial backoff: the first redial waits backoffInitial, each next one twice
// as long up to backoffMax, and every wait is scaled by a uniform factor in
// [1-backoffJitter, 1+backoffJitter] so a fleet of clients does not stampede
// a restarting broker.
const (
	backoffInitial = 50 * time.Millisecond
	backoffMax     = 2 * time.Second
	backoffJitter  = 0.2
)

// backoff returns the wait before redial number attempt (0 for the first),
// given u drawn uniformly from [0, 1).
func backoff(attempt int, u float64) time.Duration {
	d := backoffInitial
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	return time.Duration(float64(d) * (1 + float64(backoffJitter*(float64(2*u)-1))))
}

// Client talks to a queue Server and reconnects by itself. Publish, LPush
// and BRPop share one request connection (calls are serialized); each
// Subscribe and Hold holds a dedicated connection, as the protocol
// requires. Connections are dialled lazily, so the server may come up after
// the client. An operation that finds its connection broken redials with
// backoff and retries until it succeeds or the client is closed, and a
// subscription re-subscribes the same way and keeps its receive channel: a
// server restart or transient TCP failure stalls callers instead of failing
// them. Only a DialFunc resolver that finds no server fails an operation
// (see DialFunc). A goroutine reads each request connection's replies, so a
// connection the server closed is dropped when its FIN arrives rather than
// by losing the next request to it. Delivery stays at-most-once: a frame in
// flight when its connection died is gone, and so is whatever was published
// while a subscription was down.
type Client struct {
	resolve func(context.Context) (string, error) // the server's address, asked before each dial
	ctx     context.Context                       // ends on Close: aborts dials and backoffs, unblocks slow consumers
	cancel  context.CancelFunc

	mu  sync.Mutex // serializes requests; a parked BRPop holds it
	hdr []byte     // request header scratch, guarded by mu

	state       sync.Mutex // guards the fields below; never held across I/O
	link        *link      // the request connection: nil until dialled and after it broke
	conns       map[net.Conn]struct{}
	closed      bool
	mReconnects *obs.Counter
	wg          sync.WaitGroup // reply readers, subscriptions and holds
}

// link is a request connection and the replies its reader goroutine hands
// over; dead closes when that reader stops, because the connection broke.
type link struct {
	conn    net.Conn
	replies chan reply
	dead    chan struct{}
}

type reply struct {
	payload []byte
	err     error // nil or ErrTimeout
}

// errBroken reports a request connection whose reader stopped.
var errBroken = errors.New("queue: connection closed")

// Dial returns a client for the server at addr. It fails only when addr is
// not a host:port; the connections are dialled on first use.
func Dial(addr string) (*Client, error) {
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, fmt.Errorf("queue: broker address: %w", err)
	}
	return DialFunc(func(context.Context) (string, error) { return addr, nil }), nil
}

// DialFunc returns a client whose server address resolve gives before every
// dial: the first, and each redial after a broken connection, so a server
// that restarted on another port is found again. resolve may wait (Lookup
// can wait until the address is registered); its context ends on Close. An
// error from it fails the request that needed the dial — the server is
// gone, not slow — while Subscribe and Hold retry it with backoff.
func DialFunc(resolve func(ctx context.Context) (string, error)) *Client {
	c := &Client{resolve: resolve, conns: map[net.Conn]struct{}{}}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Lookup returns the value the broker at broker holds under key (see Hold),
// asking on a connection of its own. With wait it waits, without polling,
// until the key is set or ctx ends; without, an unset key is an error at
// once. While the broker is down, it redials with backoff, as a Client
// does. An empty value names the broker itself — a list the broker serves,
// such as a controller's in-process worker's — so Lookup returns broker
// for it.
func Lookup(ctx context.Context, broker, key string, wait bool) (string, error) {
	c := DialFunc(func(context.Context) (string, error) { return broker, nil })
	defer c.Close()
	defer context.AfterFunc(ctx, func() { c.Close() })()
	var timeout [8]byte // in ms; 0 waits forever
	if !wait {
		binary.LittleEndian.PutUint64(timeout[:], 1)
	}
	v, err := c.call(cmdGet, key, timeout[:])
	switch {
	case errors.Is(err, ErrTimeout):
		return "", fmt.Errorf("queue: %s is not registered", key)
	case err != nil:
		return "", ctx.Err() // only ctx's end closes c
	case len(v) == 0:
		return broker, nil
	}
	return string(v), nil
}

// SetMetrics wires the client's retry accounting into a registry
// (METRICS.md: queue.reconnect_attempts counts every backoff before a
// redial).
func (c *Client) SetMetrics(reg *obs.Registry) {
	c.state.Lock()
	defer c.state.Unlock()
	c.mReconnects = reg.Counter("queue.reconnect_attempts")
}

// errUnresolved marks a dial whose resolver failed.
var errUnresolved = errors.New("queue: no server address")

// dial opens a connection to the server, resolving its address first;
// Close aborts a dial in progress.
func (c *Client) dial() (net.Conn, error) {
	addr, err := c.resolve(c.ctx)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errUnresolved, err)
	}
	var d net.Dialer
	return d.DialContext(c.ctx, "tcp", addr)
}

// wait sleeps before redial number attempt and counts it. It returns
// ErrClosed, early, once the client is closed.
func (c *Client) wait(attempt int) error {
	c.state.Lock()
	m := c.mReconnects
	c.state.Unlock()
	m.Inc()
	t := time.NewTimer(backoff(attempt, rand.Float64()))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.ctx.Done():
		return ErrClosed
	}
}

// track records a dedicated or request connection so Close can end it; it
// reports false, and the caller closes conn, once the client is closed.
func (c *Client) track(conn net.Conn) bool {
	c.state.Lock()
	defer c.state.Unlock()
	if c.closed {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

// untrack forgets conn and closes it.
func (c *Client) untrack(conn net.Conn) {
	c.state.Lock()
	delete(c.conns, conn)
	c.state.Unlock()
	conn.Close()
}

// connect returns the request connection, dialling it and starting its
// reply reader if needed. Callers hold c.mu.
func (c *Client) connect() (*link, error) {
	c.state.Lock()
	l, closed := c.link, c.closed
	c.state.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if l != nil {
		return l, nil
	}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	l = &link{conn: conn, replies: make(chan reply), dead: make(chan struct{})}
	c.state.Lock()
	defer c.state.Unlock()
	if c.closed {
		conn.Close()
		return nil, ErrClosed
	}
	c.conns[conn] = struct{}{}
	c.link = l
	c.wg.Add(1)
	go c.readReplies(l)
	return l, nil
}

// readReplies hands l's replies to the request waiting for them until the
// connection breaks, the server closes it or breaks the protocol, or the
// client is closed; then it retires l, so the next request redials.
func (c *Client) readReplies(l *link) {
	defer c.wg.Done()
	defer close(l.dead)
	defer c.drop(l)
	r := bufio.NewReader(l.conn)
	for {
		p, err := readReply(r)
		if err != nil && !errors.Is(err, ErrTimeout) {
			return
		}
		select {
		case l.replies <- reply{p, err}:
		case <-c.ctx.Done():
			return
		}
	}
}

// drop retires l as the request connection and closes it.
func (c *Client) drop(l *link) {
	c.state.Lock()
	if c.link == l {
		c.link = nil
	}
	c.state.Unlock()
	c.untrack(l.conn)
}

// call sends one request and, for BRPOP and GET, reads its answer. On a broken
// connection it redials with backoff and sends the request again, until it
// succeeds, the resolver finds no server or the client is closed.
// ErrTimeout is an answer, not a broken connection, so it passes straight
// through.
func (c *Client) call(cmd byte, key string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		l, err := c.connect()
		if errors.Is(err, ErrClosed) || errors.Is(err, errUnresolved) {
			return nil, err
		}
		if err == nil {
			p, err := c.roundTrip(l, cmd, key, payload)
			if err == nil || errors.Is(err, ErrTimeout) {
				return p, err
			}
			c.drop(l)
		}
		if err := c.wait(attempt); err != nil {
			return nil, err
		}
	}
}

// roundTrip writes one request frame on l and, for BRPOP and GET, waits for
// the answer. Callers hold c.mu.
func (c *Client) roundTrip(l *link, cmd byte, key string, payload []byte) ([]byte, error) {
	c.hdr = requestHeader(c.hdr[:0], cmd, key, payload)
	if err := writeFrame(l.conn, c.hdr, payload); err != nil || cmd != cmdBRPop && cmd != cmdGet {
		return nil, err
	}
	select {
	case r := <-l.replies:
		return r.payload, r.err
	case <-l.dead:
		return nil, errBroken
	}
}

// readReply reads a BRPOP or GET answer into a frame from the free list.
func readReply(r *bufio.Reader) ([]byte, error) {
	b, err := r.Peek(5)
	if err != nil {
		return nil, err
	}
	status, plen := b[0], binary.LittleEndian.Uint32(b[1:])
	r.Discard(5)
	if plen > maxFrame {
		// A corrupt or hostile length must not size an allocation. The
		// stream is unusable past this point, so the caller redials.
		return nil, fmt.Errorf("queue: response payload %d exceeds limit", plen)
	}
	payload := bufpool.Bytes.Get(int(plen))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, ErrTimeout
	}
	return payload, nil
}

// Publish sends payload to all subscribers of channel. The payload is only
// read; the caller keeps it.
func (c *Client) Publish(channel string, payload []byte) error {
	_, err := c.call(cmdPublish, channel, payload)
	return err
}

// LPush appends payload to the named list. The payload is only read — the
// server ends up with its own copy — so the caller keeps it and may reuse
// or recycle it once LPush returns.
func (c *Client) LPush(key string, payload []byte) error {
	_, err := c.call(cmdLPush, key, payload)
	return err
}

// ErrTimeout is returned by BRPop when the server-side wait expires.
var ErrTimeout = errors.New("queue: BRPOP timeout")

// BRPop blocks until an element is available on key or timeout elapses
// (timeout <= 0 waits forever). The server-side wait restarts after each
// redial, so with a flapping broker the total wait can exceed timeout. The
// caller owns the returned frame; it comes from the frame free list, so a
// caller that is done with it may hand it back with bufpool.Bytes.Put.
func (c *Client) BRPop(key string, timeout time.Duration) ([]byte, error) {
	var tbuf [8]byte
	ms := int64(0)
	if timeout > 0 {
		ms = max(int64(timeout/time.Millisecond), 1)
	}
	binary.LittleEndian.PutUint64(tbuf[:], uint64(ms))
	return c.call(cmdBRPop, key, tbuf[:])
}

// Subscribe returns a channel of the payloads published to channel. The
// channel closes only when the client is closed.
func (c *Client) Subscribe(channel string, buf int) (<-chan []byte, error) {
	if buf < 1 {
		buf = 64
	}
	out := make(chan []byte, buf)
	if err := c.keep(func(conn net.Conn) { c.forward(conn, channel, out) }, func() { close(out) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Hold keeps key set in the broker's register for as long as the client
// lives, on a dedicated connection: it sends SET and keeps the connection
// open, and the broker releases the key when that connection closes, so a
// holder that closes or dies takes its key with it. A dropped connection is
// redialled with backoff and the key set again, which is how the key
// outlives a broker restart. value gives the key's value for each new
// connection from that connection's local address; an error from it
// closes the connection and retries with backoff.
func (c *Client) Hold(key string, value func(local net.Addr) ([]byte, error)) error {
	return c.keep(func(conn net.Conn) {
		v, err := value(conn.LocalAddr())
		if err != nil || writeFrame(conn, requestHeader(nil, cmdSet, key, v), v) != nil {
			return
		}
		// The broker never writes here: this returns when the connection ends.
		io.Copy(io.Discard, conn)
	}, func() {})
}

// keep runs serve on a dedicated connection, redialling with backoff
// whenever it drops, until the client is closed; then it runs done. A dial
// that succeeds starts the backoff ladder over.
func (c *Client) keep(serve func(conn net.Conn), done func()) error {
	c.state.Lock()
	defer c.state.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer done()
		for attempt := 0; ; attempt++ {
			if conn, err := c.dial(); err == nil {
				attempt = 0
				if c.track(conn) {
					serve(conn)
					c.untrack(conn)
				} else {
					conn.Close()
				}
			}
			if c.wait(attempt) != nil {
				return
			}
		}
	}()
	return nil
}

// forward subscribes conn to channel and hands its frames to out until the
// connection drops or the client is closed.
func (c *Client) forward(conn net.Conn, channel string, out chan<- []byte) {
	if err := writeFrame(conn, requestHeader(nil, cmdSub, channel, nil), nil); err != nil {
		return
	}
	r := bufio.NewReader(conn)
	for {
		b, err := r.Peek(4)
		if err != nil {
			return
		}
		plen := binary.LittleEndian.Uint32(b)
		r.Discard(4)
		if plen > maxFrame {
			return
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		// A slow (or absent) consumer must not wedge this goroutine on the
		// channel send: it would never return to the read loop, so it would
		// never observe the closed connection and Close would hang forever
		// on wg.Wait. The client's context breaks the tie.
		select {
		case out <- payload:
		case <-c.ctx.Done():
			return
		}
	}
}

// Close tears down the client: pending operations return ErrClosed, every
// subscription channel closes and every held key is released. It
// deliberately does NOT take the request mutex: a BRPop parked waiting for
// its answer holds that mutex, and closing the connection is what unblocks
// it. When Close returns, no goroutine of the client is left.
func (c *Client) Close() error {
	c.state.Lock()
	if c.closed {
		c.state.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	c.cancel()
	var err error
	for conn := range c.conns {
		if e := conn.Close(); err == nil && c.link != nil && conn == c.link.conn {
			err = e
		}
	}
	c.state.Unlock()
	c.wg.Wait()
	return err
}
