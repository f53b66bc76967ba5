package queue

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dlion/internal/bufpool"
)

// Wire protocol: each request frame is
//
//	[1B cmd][2B keyLen][key][4B payloadLen][payload]
//
// cmdPublish and cmdLPush have no response. cmdBRPop carries an 8-byte
// little-endian timeout in milliseconds as payload and receives a response
// frame [1B status][4B len][payload] (status 0 = ok, 1 = timeout). After
// cmdSubscribe the connection becomes push-only: the server streams
// [4B len][payload] frames until either side closes, mirroring Redis's
// dedicated-subscriber-connection model.
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

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	r := bufio.NewReader(conn)
	var hdr []byte // response/push header scratch, reused across frames
	for {
		cmd, key, payload, err := readRequest(r)
		if err != nil {
			return
		}
		switch cmd {
		case cmdPublish:
			s.broker.Publish(key, payload)
		case cmdLPush:
			s.broker.LPush(key, payload)
		case cmdBRPop:
			if len(payload) != 8 {
				return
			}
			timeout := time.Duration(binary.LittleEndian.Uint64(payload)) * time.Millisecond
			ctx, cancel := contextWithOptionalTimeout(s.ctx, timeout)
			data, err := s.broker.BRPop(ctx, key)
			cancel()
			status := byte(0)
			if err != nil {
				status, data = 1, nil
			}
			hdr = lenHeader(append(hdr[:0], status), data)
			if err := writeFrame(conn, hdr, data); err != nil {
				return
			}
			// The pop made this handler the frame's owner and the response
			// was its last use.
			bufpool.Bytes.Put(data)
		case cmdSub:
			s.servePush(conn, key)
			return
		default:
			return
		}
	}
}

func (s *Server) servePush(conn net.Conn, channel string) {
	sub, err := s.broker.Subscribe(channel, 256)
	if err != nil {
		return
	}
	defer sub.Cancel()
	hdr := make([]byte, 0, 4)
	// Detect client disconnect by reading (the client sends nothing more).
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn)
		close(done)
	}()
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
		case <-done:
			return
		}
	}
}

// contextWithOptionalTimeout returns a child of parent bounded by d, or an
// unbounded child when d <= 0 (BRPOP with timeout 0 blocks until the
// server shuts down, like Redis blocks forever).
func contextWithOptionalTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(parent)
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

// Client talks to a queue Server. One client multiplexes Publish, LPush
// and BRPop over a single connection (calls are serialized); Subscribe
// opens a dedicated connection, as the protocol requires.
type Client struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	hdr  []byte // request header scratch, guarded by mu

	subMu   sync.Mutex
	subs    []net.Conn
	closed  bool
	done    chan struct{} // closed by Close; unblocks slow-consumer sends
	subWait sync.WaitGroup
}

// Dial connects to a queue server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn, done: make(chan struct{}),
		r: bufio.NewReader(conn)}, nil
}

// request writes one request frame. Callers hold c.mu.
func (c *Client) request(cmd byte, key string, payload []byte) error {
	c.hdr = requestHeader(c.hdr[:0], cmd, key, payload)
	return writeFrame(c.conn, c.hdr, payload)
}

// Publish sends payload to all subscribers of channel. The payload is only
// read; the caller keeps it.
func (c *Client) Publish(channel string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.request(cmdPublish, channel, payload)
}

// LPush appends payload to the named list. The payload is only read — the
// server ends up with its own copy — so the caller keeps it and may reuse
// or recycle it once LPush returns.
func (c *Client) LPush(key string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.request(cmdLPush, key, payload)
}

// ErrTimeout is returned by BRPop when the server-side wait expires.
var ErrTimeout = errors.New("queue: BRPOP timeout")

// BRPop blocks until an element is available on key or timeout elapses
// (timeout <= 0 waits forever). The caller owns the returned frame; it comes
// from the frame free list, so a caller that is done with it may hand it
// back with bufpool.Bytes.Put.
func (c *Client) BRPop(key string, timeout time.Duration) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tbuf [8]byte
	ms := int64(0)
	if timeout > 0 {
		ms = int64(timeout / time.Millisecond)
		if ms == 0 {
			ms = 1
		}
	}
	binary.LittleEndian.PutUint64(tbuf[:], uint64(ms))
	if err := c.request(cmdBRPop, key, tbuf[:]); err != nil {
		return nil, err
	}
	b, err := c.r.Peek(5)
	if err != nil {
		return nil, err
	}
	status, plen := b[0], binary.LittleEndian.Uint32(b[1:])
	c.r.Discard(5)
	if plen > maxFrame {
		// A corrupt or hostile length must not size an allocation. The
		// stream is unusable past this point; the error makes a
		// ReconnectingClient drop the connection and redial.
		return nil, fmt.Errorf("queue: response payload %d exceeds limit", plen)
	}
	payload := bufpool.Bytes.Get(int(plen))
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, ErrTimeout
	}
	return payload, nil
}

// Subscribe opens a dedicated connection subscribed to channel and returns
// a receive channel that closes when the connection drops or the client is
// closed.
func (c *Client) Subscribe(channel string, buf int) (<-chan []byte, error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, requestHeader(nil, cmdSub, channel, nil), nil); err != nil {
		conn.Close()
		return nil, err
	}
	c.subMu.Lock()
	if c.closed {
		c.subMu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	c.subs = append(c.subs, conn)
	c.subMu.Unlock()

	if buf < 1 {
		buf = 64
	}
	out := make(chan []byte, buf)
	c.subWait.Add(1)
	go func() {
		defer c.subWait.Done()
		defer close(out)
		defer conn.Close()
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
			// A slow (or absent) consumer must not wedge this goroutine on
			// the channel send: it would never return to the read loop, so
			// it would never observe the closed connection and Close would
			// hang forever on subWait.Wait. The done channel breaks the tie.
			select {
			case out <- payload:
			case <-c.done:
				return
			}
		}
	}()
	return out, nil
}

// Close tears down the client and all of its subscription connections. It
// deliberately does NOT take the request mutex before closing the main
// connection: a BRPop blocked waiting for a response holds that mutex, and
// closing the connection is what unblocks it.
func (c *Client) Close() error {
	c.subMu.Lock()
	if c.closed {
		c.subMu.Unlock()
		c.subWait.Wait()
		return nil
	}
	c.closed = true
	close(c.done)
	for _, s := range c.subs {
		s.Close()
	}
	c.subs = nil
	c.subMu.Unlock()
	err := c.conn.Close()
	c.subWait.Wait()
	return err
}
