package simclock

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refEvent / refHeap are the engine's original container/heap scheduler,
// kept verbatim as the ordering oracle for eventHeap: both receive the same
// schedule and must emit the same (at, seq) sequence. (The two
// TestCalendarVsHeap… names date from the calendar queue this oracle first
// checked; they are kept so the suite's test ids stay continuous.)
type refEvent struct {
	at  float64
	seq uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// burstSchedule reproduces the schedule that broke the calendar queue
// (DESIGN.md §14): at t = 0 each of n workers enqueues its n−1 deliveries,
// whose arrival times step through a 15 ms window — egress serialisation
// lands the k-th message of every sender on one link class at exactly the
// same instant, so ties are the rule — while a handful of evaluation and
// profiling timers, interleaved with the pushes, sit 10³× further out.
func burstSchedule(n int) []float64 {
	const window, far, timers = 0.015, 15.0, 8
	total := n * (n - 1)
	times := make([]float64, 0, total+timers)
	every := total/timers + 1
	for from := 0; from < n; from++ {
		for k := 1; k < n; k++ {
			if len(times)%every == 0 {
				times = append(times, far*float64(1+len(times)%3))
			}
			at := window * float64(k) / float64(n)
			if from%4 == 0 {
				at += 1e-6 * float64(from) // a quarter of the senders sit behind a slower link
			}
			times = append(times, at)
		}
	}
	return times
}

// diffDriver feeds an identical schedule to eventHeap and the reference
// heap and fails the test on the first divergent pop. times feeds pushes;
// popEvery interleaves pops so sift-down runs against a half-built heap
// mid-stream.
func diffDriver(t *testing.T, times []float64, popEvery int) {
	t.Helper()
	var cq eventHeap
	var rh refHeap
	var seq uint64
	lastPopped := math.Inf(-1)

	checkPop := func() {
		got, ok := cq.pop()
		if !ok {
			if rh.Len() != 0 {
				t.Fatalf("scheduler empty, reference heap has %d", rh.Len())
			}
			return
		}
		want := heap.Pop(&rh).(*refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("divergence: scheduler (at=%v seq=%d), reference (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
		lastPopped = got.at
	}

	for i, at := range times {
		// An engine never schedules into the past (At clamps to Now).
		if at < lastPopped {
			at = lastPopped
		}
		seq++
		cq.push(event{at: at, seq: seq})
		heap.Push(&rh, &refEvent{at: at, seq: seq})
		if popEvery > 0 && i%popEvery == popEvery-1 {
			checkPop()
		}
	}
	for rh.Len() > 0 || len(cq) > 0 {
		checkPop()
	}
	if _, ok := cq.pop(); ok {
		t.Fatal("scheduler popped after drain")
	}
}

func TestCalendarVsHeapRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 72; trial++ {
		n := 1 + rng.Intn(800)
		times := make([]float64, n)
		mode := trial % 6
		if mode == 5 { // all-to-all burst beside far timers, up to 812 events
			times = burstSchedule(2 + rng.Intn(28))
		}
		for i := range times {
			switch mode {
			case 0: // uniform spread
				times[i] = rng.Float64() * 1000
			case 1: // heavy ties
				times[i] = float64(rng.Intn(8))
			case 2: // advancing clusters, like iteration completions
				times[i] = float64(i/10) + rng.Float64()*0.01
			case 3: // huge dynamic range
				times[i] = math.Exp(rng.Float64() * 30)
			case 4: // sub-second micro-gaps
				times[i] = rng.Float64() * 1e-6
			}
		}
		diffDriver(t, times, 1+trial%4)
	}
}

func TestCalendarVsHeapPushAllPopAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	times := make([]float64, 5000)
	for i := range times {
		times[i] = rng.Float64() * 50
	}
	diffDriver(t, times, 0)
	diffDriver(t, burstSchedule(72), 0)
}

// FuzzSchedulerVsHeap decodes the fuzz input as an operation stream — two
// bytes of timestamp plus one opcode bit for an interleaved pop — and
// differentially checks eventHeap against the reference heap. Runs in make
// fuzz-smoke.
func FuzzSchedulerVsHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 255, 255, 0})
	f.Add([]byte{9, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 1, 128, 7, 64, 3, 32, 200, 16, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cq eventHeap
		var rh refHeap
		var seq uint64
		last := 0.0
		for i := 0; i+1 < len(data); i += 2 {
			// Quantized times produce the tie storms that stress the
			// (at, seq) tie-break; the byte-derived scale covers gaps from
			// micro-seconds to far-out timers.
			at := float64(data[i]&0x7f) * (1 + float64(data[i+1])*37.3)
			if at < last {
				at = last
			}
			seq++
			cq.push(event{at: at, seq: seq})
			heap.Push(&rh, &refEvent{at: at, seq: seq})
			if data[i]&0x80 != 0 {
				got, ok := cq.pop()
				if !ok {
					t.Fatal("scheduler empty while reference heap is not")
				}
				want := heap.Pop(&rh).(*refEvent)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("divergence at op %d: scheduler (%v,%d) reference (%v,%d)",
						i, got.at, got.seq, want.at, want.seq)
				}
				last = got.at
			}
		}
		for rh.Len() > 0 {
			got, ok := cq.pop()
			if !ok {
				t.Fatal("scheduler drained early")
			}
			want := heap.Pop(&rh).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("drain divergence: scheduler (%v,%d) reference (%v,%d)",
					got.at, got.seq, want.at, want.seq)
			}
		}
		if len(cq) != 0 {
			t.Fatalf("scheduler retains %d events after reference heap drained", len(cq))
		}
	})
}

// TestHoldAllocatesNothing pins the heap's steady state: once the backing
// array has grown to the peak queue size, popping one event and pushing
// another at constant size must not allocate.
func TestHoldAllocatesNothing(t *testing.T) {
	var cq eventHeap
	var seq uint64
	at := 0.0
	for i := 0; i < 4096; i++ {
		seq++
		at += 0.5
		cq.push(event{at: at, seq: seq})
	}
	allocs := testing.AllocsPerRun(200, func() {
		cq.pop()
		seq++
		at += 0.5
		cq.push(event{at: at, seq: seq})
	})
	if allocs != 0 {
		t.Fatalf("steady-state pop/push allocates %.1f times per op", allocs)
	}
}
