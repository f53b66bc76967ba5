package simclock

// event is one scheduled callback, stored by value inside the heap.
type event struct {
	at  float64
	seq uint64
	h   Handler
}

// before is the engine's total order: time, then insertion sequence. seq is
// unique per event, so the order is strict and the pop sequence is a pure
// function of the pushed set, whatever the heap's shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is the engine's scheduler: a 4-ary min-heap of value-typed
// events ordered by (at, seq). Push and pop are O(log n) in the worst case
// for every schedule shape, with nothing to tune and no per-event
// allocation; the backing array grows to the peak queue size and is reused
// from then on. DESIGN.md §14 records why this replaced a calendar queue:
// an all-to-all burst next to a few far-out timers collapsed the calendar
// into a couple of O(bucket) buckets. Four children per node halve the
// sift depth of a binary heap and keep one node's children in one or two
// cache lines.
type eventHeap []event

const arity = 4

// push inserts ev, sifting it up through a hole so that each level costs
// one copy instead of a swap.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the minimum (at, seq) event.
func (h *eventHeap) pop() (event, bool) {
	q := *h
	n := len(q) - 1
	if n < 0 {
		return event{}, false
	}
	top, last := q[0], q[n]
	q[n] = event{} // release the callback reference
	q = q[:n]
	*h = q
	if n == 0 {
		return top, true
	}
	// Sift the former last event down from the root.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+arity && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top, true
}

// peek returns the minimum event's timestamp without removing it.
func (h *eventHeap) peek() (float64, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0].at, true
}
