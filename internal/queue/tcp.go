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
// cmdPublish and cmdLPush have no response. cmdBRPop carries an 8-byte
// little-endian timeout in milliseconds as payload and receives a response
// frame [1B status][4B len][payload] (status 0 = ok, 1 = timeout); a wait
// that the server or broker closing ends gets no response, only a dropped
// connection. After cmdSubscribe the connection becomes push-only: the
// server streams [4B len][payload] frames until either side closes,
// mirroring Redis's dedicated-subscriber-connection model.
const (
	cmdPublish = 1
	cmdLPush   = 2
	cmdBRPop   = 3
	cmdSub     = 4
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

// handle executes one connection's requests. They are parsed by a separate
// reader, which ends the connection's context when the peer hangs up: a
// BRPOP parked for a consumer that has gone stops waiting, instead of
// taking the next frame pushed to its list.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	reqs := make(chan request)
	s.wg.Add(1)
	go s.read(ctx, cancel, conn, reqs)
	var hdr []byte // response/push header scratch, reused across frames
	for req := range reqs {
		switch req.cmd {
		case cmdPublish:
			s.broker.Publish(req.key, req.payload)
		case cmdLPush:
			s.broker.LPush(req.key, req.payload)
		case cmdBRPop:
			if len(req.payload) != 8 {
				return
			}
			timeout := time.Duration(binary.LittleEndian.Uint64(req.payload)) * time.Millisecond
			wait, stop := contextWithOptionalTimeout(ctx, timeout)
			data, err := s.broker.BRPop(wait, req.key)
			stop()
			status := byte(0)
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				status = 1
			case err != nil:
				// The consumer left, or the server or broker is closing:
				// there is nobody to answer, and no timeout to report.
				return
			case ctx.Err() != nil:
				// Popped at the instant the consumer left or the server
				// began closing: the next consumer gets the frame.
				s.broker.requeue(req.key, data)
				return
			}
			hdr = lenHeader(append(hdr[:0], status), data)
			if err := writeFrame(conn, hdr, data); err != nil {
				// An incomplete write delivered no frame.
				if data != nil {
					s.broker.requeue(req.key, data)
				}
				return
			}
			// The pop made this handler the frame's owner and the response
			// was its last use.
			bufpool.Bytes.Put(data)
		case cmdSub:
			s.servePush(ctx, conn, req.key)
			return
		default:
			return
		}
	}
}

// read parses conn's requests for handle until the peer hangs up, breaks
// the protocol or handle gives up, and then ends the connection's context.
func (s *Server) read(ctx context.Context, cancel context.CancelFunc, conn net.Conn, reqs chan<- request) {
	defer s.wg.Done()
	defer cancel()
	defer close(reqs)
	r := bufio.NewReader(conn)
	for {
		cmd, key, payload, err := readRequest(r)
		if err != nil {
			return
		}
		select {
		case reqs <- request{cmd, key, payload}:
		case <-ctx.Done():
			return
		}
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
// last. PUBLISH payloads are shared by subscribers and BRPOP/SUBSCRIBE
// payloads are tiny, so those are plain allocations.
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
// Subscribe holds a dedicated connection, as the protocol requires.
// Connections are dialled lazily, so the broker may come up after the
// client. An operation that finds its connection broken redials with
// backoff and retries until it succeeds or the client is closed, and a
// subscription re-subscribes the same way and keeps its receive channel: a
// broker restart or transient TCP failure stalls callers instead of failing
// them. Delivery stays at-most-once: a frame in flight when its connection
// died is gone, and so is whatever was published while a subscription was
// down.
type Client struct {
	addr   string
	ctx    context.Context // ends on Close: aborts dials and backoffs, unblocks slow consumers
	cancel context.CancelFunc

	mu  sync.Mutex    // serializes requests; a parked BRPop holds it
	r   *bufio.Reader // reads the request connection, guarded by mu
	hdr []byte        // request header scratch, guarded by mu

	state       sync.Mutex // guards the fields below; never held across I/O
	conn        net.Conn   // the request connection: nil until dialled and after it broke
	subs        map[net.Conn]struct{}
	closed      bool
	mReconnects *obs.Counter
	subWait     sync.WaitGroup
}

// Dial returns a client for the broker at addr. It fails only when addr is
// not a host:port; the connections are dialled on first use.
func Dial(addr string) (*Client, error) {
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, fmt.Errorf("queue: broker address: %w", err)
	}
	c := &Client{addr: addr, subs: map[net.Conn]struct{}{}}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c, nil
}

// SetMetrics wires the client's retry accounting into a registry
// (METRICS.md: queue.reconnect_attempts counts every backoff before a
// redial).
func (c *Client) SetMetrics(reg *obs.Registry) {
	c.state.Lock()
	defer c.state.Unlock()
	c.mReconnects = reg.Counter("queue.reconnect_attempts")
}

// dial opens a connection to the broker; Close aborts a dial in progress.
func (c *Client) dial() (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(c.ctx, "tcp", c.addr)
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

// connect returns the request connection, dialling it if needed. Callers
// hold c.mu.
func (c *Client) connect() (net.Conn, error) {
	c.state.Lock()
	conn, closed := c.conn, c.closed
	c.state.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if conn != nil {
		return conn, nil
	}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.state.Lock()
	defer c.state.Unlock()
	if c.closed {
		conn.Close()
		return nil, ErrClosed
	}
	c.conn, c.r = conn, bufio.NewReader(conn)
	return conn, nil
}

// call sends one request and, for BRPOP, reads its answer. On a broken
// connection it redials with backoff and sends the request again, until it
// succeeds or the client is closed. ErrTimeout is an answer, not a broken
// connection, so it passes straight through.
func (c *Client) call(cmd byte, key string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		conn, err := c.connect()
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		if err == nil {
			p, err := c.roundTrip(conn, cmd, key, payload)
			if err == nil || errors.Is(err, ErrTimeout) {
				return p, err
			}
			c.state.Lock()
			c.conn = nil
			c.state.Unlock()
			conn.Close()
		}
		if err := c.wait(attempt); err != nil {
			return nil, err
		}
	}
}

// roundTrip writes one request frame on conn and, for BRPOP, reads the
// answer. Callers hold c.mu.
func (c *Client) roundTrip(conn net.Conn, cmd byte, key string, payload []byte) ([]byte, error) {
	c.hdr = requestHeader(c.hdr[:0], cmd, key, payload)
	if err := writeFrame(conn, c.hdr, payload); err != nil || cmd != cmdBRPop {
		return nil, err
	}
	return readReply(c.r)
}

// readReply reads a BRPOP answer into a frame from the free list.
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
	c.state.Lock()
	defer c.state.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if buf < 1 {
		buf = 64
	}
	out := make(chan []byte, buf)
	c.subWait.Add(1)
	go c.subscribe(channel, out)
	return out, nil
}

// subscribe feeds out from a subscription connection, redialling with
// backoff whenever it drops, until the client is closed. A dial that
// succeeds starts the backoff ladder over.
func (c *Client) subscribe(channel string, out chan<- []byte) {
	defer c.subWait.Done()
	defer close(out)
	for attempt := 0; ; attempt++ {
		if conn, err := c.dial(); err == nil {
			attempt = 0
			c.forward(conn, channel, out)
		}
		if c.wait(attempt) != nil {
			return
		}
	}
}

// forward subscribes conn to channel and hands its frames to out until the
// connection drops or the client is closed.
func (c *Client) forward(conn net.Conn, channel string, out chan<- []byte) {
	defer conn.Close()
	c.state.Lock()
	if c.closed {
		c.state.Unlock()
		return
	}
	c.subs[conn] = struct{}{}
	c.state.Unlock()
	defer func() {
		c.state.Lock()
		delete(c.subs, conn)
		c.state.Unlock()
	}()
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
		// on subWait.Wait. The client's context breaks the tie.
		select {
		case out <- payload:
		case <-c.ctx.Done():
			return
		}
	}
}

// Close tears down the client: pending operations return ErrClosed and
// every subscription channel closes. It deliberately does NOT take the
// request mutex: a BRPop parked waiting for its answer holds that mutex,
// and closing the connection is what unblocks it.
func (c *Client) Close() error {
	c.state.Lock()
	if c.closed {
		c.state.Unlock()
		c.subWait.Wait()
		return nil
	}
	c.closed = true
	c.cancel()
	var err error
	if c.conn != nil {
		err = c.conn.Close()
	}
	for s := range c.subs {
		s.Close()
	}
	c.state.Unlock()
	c.subWait.Wait()
	return err
}
