// Package queue is the Redis substitute in this DLion reproduction. The
// original prototype used Redis PUB/SUB for control signaling and Redis
// lists for gradient/weight data queues (§4.2); this package provides the
// same two primitives — fan-out publish/subscribe channels and blocking
// FIFO lists — as an in-memory broker, plus a TCP server/client pair so
// real-mode workers in separate processes can share one broker just as the
// prototype's workers shared one Redis.
package queue

import (
	"context"
	"errors"
	"sync"

	"dlion/internal/obs"
)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("queue: broker closed")

// Broker is an in-memory message broker with PUB/SUB channels and blocking
// FIFO lists. All methods are safe for concurrent use.
type Broker struct {
	mu      sync.Mutex
	closed  bool
	nextSub int
	subs    map[string]map[int]*Subscription
	lists   map[string][][]byte
	waiters map[string][]chan []byte
	queued  int // total items across all lists (drives the depth gauge)

	// Metric handles (nil-safe no-ops until SetMetrics is called).
	mPublished  *obs.Counter
	mPubDropped *obs.Counter
	mPushed     *obs.Counter
	mPopped     *obs.Counter
	mDepth      *obs.Gauge
}

// SetMetrics wires the broker's counters into a registry (METRICS.md:
// queue.published, queue.pub_dropped, queue.pushed, queue.popped, and the
// queue.list_depth gauge). Call before serving traffic; without it the
// broker runs uninstrumented at no cost.
func (b *Broker) SetMetrics(r *obs.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mPublished = r.Counter("queue.published")
	b.mPubDropped = r.Counter("queue.pub_dropped")
	b.mPushed = r.Counter("queue.pushed")
	b.mPopped = r.Counter("queue.popped")
	b.mDepth = r.Gauge("queue.list_depth")
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		subs:    map[string]map[int]*Subscription{},
		lists:   map[string][][]byte{},
		waiters: map[string][]chan []byte{},
	}
}

// Subscription is a live PUB/SUB subscription. Receive from C; call Cancel
// when done. C is closed on Cancel and on broker Close.
type Subscription struct {
	C       <-chan []byte
	c       chan []byte
	id      int
	channel string
	b       *Broker
	once    sync.Once
}

// Cancel removes the subscription and closes C.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.b.mu.Lock()
		if m := s.b.subs[s.channel]; m != nil {
			delete(m, s.id)
			if len(m) == 0 {
				delete(s.b.subs, s.channel)
			}
		}
		s.b.mu.Unlock()
		close(s.c)
	})
}

// Subscribe registers interest in a channel. buf is the subscriber's queue
// depth; a full subscriber drops the oldest message (slow consumers never
// block publishers, as with Redis client output buffers).
func (b *Broker) Subscribe(channel string, buf int) (*Subscription, error) {
	if buf < 1 {
		buf = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.nextSub++
	s := &Subscription{c: make(chan []byte, buf), id: b.nextSub, channel: channel, b: b}
	s.C = s.c
	m := b.subs[channel]
	if m == nil {
		m = map[int]*Subscription{}
		b.subs[channel] = m
	}
	m[s.id] = s
	return s, nil
}

// Publish delivers payload to every current subscriber of channel and
// returns how many received it (after drop-oldest handling). Subscribers
// share the one slice, so nobody owns it: neither the publisher nor a
// subscriber may modify or recycle it.
func (b *Broker) Publish(channel string, payload []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	n := 0
	for _, s := range b.subs[channel] {
		for {
			select {
			case s.c <- payload:
				n++
			default:
				// full: drop oldest and retry once
				select {
				case <-s.c:
					b.mPubDropped.Inc()
					continue
				default:
				}
			}
			break
		}
	}
	b.mPublished.Add(int64(n))
	return n, nil
}

// LPush appends payload to the list's tail. Combined with BRPop (which
// takes from the head) the list is FIFO, matching the prototype's
// LPUSH/BRPOP usage. If a consumer is blocked on the key, the payload is
// handed to it directly.
//
// The broker stores the slice itself, not a copy, so a successful LPush
// takes ownership of payload: the caller must not write to, reuse or recycle
// it afterwards — whoever pops it may recycle it (DESIGN.md §9). On error
// the caller still owns it.
func (b *Broker) LPush(key string, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.mPushed.Inc()
	b.putLocked(key, payload, false)
	return nil
}

// requeue gives back a frame that a BRPop returned but its consumer never
// received: the next consumer of key gets it, ahead of everything queued. It
// undoes that pop's count. On a closed broker the frame is dropped.
func (b *Broker) requeue(key string, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.mPopped.Add(-1)
	b.putLocked(key, payload, true)
}

// putLocked hands payload to the longest-waiting consumer of key, or else
// queues it at the list's head or tail. Callers hold b.mu.
func (b *Broker) putLocked(key string, payload []byte, head bool) {
	if ws := b.waiters[key]; len(ws) > 0 {
		w := ws[0]
		ws[0] = nil // do not pin the channel (and its frame) from the backing array
		b.waiters[key] = ws[1:]
		w <- payload // waiter channel is buffered size 1
		b.mPopped.Inc()
		return
	}
	if head {
		b.lists[key] = append([][]byte{payload}, b.lists[key]...)
	} else {
		b.lists[key] = append(b.lists[key], payload)
	}
	b.queued++
	b.mDepth.Set(int64(b.queued))
}

// popLocked removes the head of list l (known non-empty) under b.mu,
// maintaining the depth accounting.
func (b *Broker) popLocked(key string, l [][]byte) []byte {
	head := l[0]
	l[0] = nil // the popped frame may be recycled; the backing array must not pin it
	if len(l) == 1 {
		delete(b.lists, key)
	} else {
		b.lists[key] = l[1:]
	}
	b.queued--
	b.mDepth.Set(int64(b.queued))
	b.mPopped.Inc()
	return head
}

// BRPop blocks until an element is available on key or ctx is done. The
// caller becomes the sole owner of the returned slice (the broker keeps no
// reference) and, as its last user, may recycle it with bufpool.Bytes.Put.
func (b *Broker) BRPop(ctx context.Context, key string) ([]byte, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if l := b.lists[key]; len(l) > 0 {
		head := b.popLocked(key, l)
		b.mu.Unlock()
		return head, nil
	}
	w := make(chan []byte, 1)
	b.waiters[key] = append(b.waiters[key], w)
	b.mu.Unlock()

	select {
	case p, ok := <-w:
		if !ok {
			return nil, ErrClosed
		}
		return p, nil
	case <-ctx.Done():
		// remove ourselves; a concurrent LPush may already have handed us a
		// payload, in which case prefer delivering it.
		b.mu.Lock()
		ws := b.waiters[key]
		for i, c := range ws {
			if c == w {
				b.waiters[key] = append(ws[:i:i], ws[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
		select {
		case p, ok := <-w:
			if ok {
				return p, nil
			}
			return nil, ErrClosed
		default:
		}
		return nil, ctx.Err()
	}
}

// Close shuts the broker down: all subscriptions are closed and blocked
// BRPops return ErrClosed.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	waiters := b.waiters
	b.subs = map[string]map[int]*Subscription{}
	b.waiters = map[string][]chan []byte{}
	b.mu.Unlock()
	for _, m := range subs {
		for _, s := range m {
			s.once.Do(func() { close(s.c) })
		}
	}
	for _, ws := range waiters {
		for _, w := range ws {
			close(w)
		}
	}
}
