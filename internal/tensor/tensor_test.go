package tensor

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 3 || x.Shape[1] != 3 {
		t.Fatalf("bad rank/dims: %v", x.Shape)
	}
}

func TestFromSliceIsRowMajor(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.Data[1*3+2] != 6 {
		t.Fatalf("element (1,2) = %v, want 6", x.Data[1*3+2])
	}
}

func TestFromSliceBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	if !slices.Equal(x.Shape, y.Shape) {
		t.Fatal("Clone changed shape")
	}
}

func TestAddAndAddScaled(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := FromSlice([]float32{10, 20}, 2)
	x.Add(y)
	if x.Data[0] != 11 || x.Data[1] != 22 {
		t.Fatalf("Add: %v", x.Data)
	}
	x.AddScaled(0.5, y)
	if x.Data[0] != 16 || x.Data[1] != 32 {
		t.Fatalf("AddScaled: %v", x.Data)
	}
}

func TestMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-7, 3, 5}, 3)
	if got := x.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
	if got := New(0).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs empty = %v, want 0", got)
	}
}

func TestFillAndZero(t *testing.T) {
	x := FromSlice([]float32{2.5, 2.5, 2.5}, 3)
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

// naive reference matmul for property testing
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a.Data[i*k+p] * b.Data[p*n+j])
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := New(2, 2)
	MatMul(c, a, b)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m, k, n := 1+r.intn(8), 1+r.intn(8), 1+r.intn(8)
		a, b := randTensor(r, m, k), randTensor(r, k, n)
		c := New(m, n)
		MatMul(c, a, b)
		ref := naiveMatMul(a, b)
		for i := range ref.Data {
			if !almostEq(float64(c.Data[i]), float64(ref.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransAMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m, k, n := 1+r.intn(6), 1+r.intn(6), 1+r.intn(6)
		aT := randTensor(r, k, m) // aᵀ stored as (k×m)
		b := randTensor(r, k, n)
		c := New(m, n)
		MatMulTransA(c, aT, b)
		// reference: transpose aT then naive multiply
		a := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				a.Data[j*k+i] = aT.Data[i*m+j]
			}
		}
		ref := naiveMatMul(a, b)
		for i := range ref.Data {
			if !almostEq(float64(c.Data[i]), float64(ref.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransBMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m, k, n := 1+r.intn(6), 1+r.intn(6), 1+r.intn(6)
		a := randTensor(r, m, k)
		bT := randTensor(r, n, k)
		c := New(m, n)
		MatMulTransB(c, a, bT)
		b := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				b.Data[j*n+i] = bT.Data[i*k+j]
			}
		}
		ref := naiveMatMul(a, b)
		for i := range ref.Data {
			if !almostEq(float64(c.Data[i]), float64(ref.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: the one tap row is the flattened input.
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	cols := Im2ColWS(nil, in, 1, 1, 1, 0)
	if cols.Shape[0] != 1 || cols.Shape[1] != 4 {
		t.Fatalf("cols shape %v", cols.Shape)
	}
	for i, want := range []float32{1, 2, 3, 4} {
		if cols.Data[i] != want {
			t.Fatalf("cols = %v", cols.Data)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	in := FromSlice([]float32{5}, 1, 1, 1, 1)
	cols := Im2ColWS(nil, in, 3, 3, 1, 1)
	// one output position, 9 values; only the center is 5
	if cols.Len() != 9 {
		t.Fatalf("len = %d", cols.Len())
	}
	for i, v := range cols.Data {
		want := float32(0)
		if i == 4 {
			want = 5
		}
		if v != want {
			t.Fatalf("cols[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestCol2ImRoundTripSums(t *testing.T) {
	// Property: sum over Col2ImWS(Im2ColWS(x)) counts each input pixel once per
	// patch it appears in; with 1x1 kernel stride 1 it is exactly x.
	f := func(seed int64) bool {
		r := newTestRand(seed)
		b, c, h, w := 1+r.intn(2), 1+r.intn(2), 2+r.intn(3), 2+r.intn(3)
		in := randTensor(r, b, c, h, w)
		cols := Im2ColWS(nil, in, 1, 1, 1, 0)
		back := Col2ImWS(nil, cols, b, c, h, w, 1, 1, 1, 0)
		for i := range in.Data {
			if !almostEq(float64(in.Data[i]), float64(back.Data[i]), 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := New(2, 2)
	MatMul(c, a, a)
	if c.Data[0] != 7 {
		t.Fatalf("single-worker MatMul wrong: %v", c.Data)
	}
	if got := SetMaxWorkers(-3); got != 1 {
		t.Fatalf("SetMaxWorkers returned %d, want previous 1", got)
	}
}

// minimal deterministic PRNG for tests (xorshift), avoids math/rand seeding
// boilerplate in property tests.
type testRand struct{ s uint64 }

func newTestRand(seed int64) *testRand {
	u := uint64(seed)
	if u == 0 {
		u = 0x9e3779b97f4a7c15
	}
	return &testRand{s: u}
}

func (r *testRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *testRand) float32() float32 {
	return float32(r.next()%1000)/500 - 1 // [-1, 1)
}

func randTensor(r *testRand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.float32()
	}
	return t
}

// TestParallelReplicasSlots pins what cluster.Run's evaluation relies on:
// every index runs exactly once, slots stay below min(workers, n), and two
// bodies holding the same slot never overlap — so per-slot scratch state
// needs no lock.
func TestParallelReplicasSlots(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(3))
	for _, n := range []int{1, 2, 3, 50} {
		ran := make([]atomic.Int32, n)
		busy := make([]atomic.Bool, n)
		ParallelReplicas(n, func(slot, i int) {
			if slot < 0 || slot >= 3 || slot >= n {
				t.Errorf("n=%d: slot %d out of range", n, slot)
				return
			}
			if !busy[slot].CompareAndSwap(false, true) {
				t.Errorf("n=%d: two bodies share slot %d at once", n, slot)
			}
			ran[i].Add(1)
			runtime.Gosched()
			busy[slot].Store(false)
		})
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestSlotsOwnTheirArenas pins what the simulator's step slots rely on:
// every step handed over runs exactly once, by the time Close returns; at
// most SetMaxWorkers arenas serve them; and no arena serves two steps at
// once. A single-slot bound runs each step inline, before Go returns.
func TestSlotsOwnTheirArenas(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(3))
	const n = 50
	var mu sync.Mutex
	arenas := map[*Workspace]*atomic.Bool{}
	ran := make([]atomic.Int32, n)
	s := NewSlots(n)
	for i := 0; i < n; i++ {
		s.Go(func(ws *Workspace) {
			mu.Lock()
			busy := arenas[ws]
			if busy == nil {
				busy = new(atomic.Bool)
				arenas[ws] = busy
			}
			mu.Unlock()
			if !busy.CompareAndSwap(false, true) {
				t.Errorf("step %d: arena %p serves two steps at once", i, ws)
			}
			ran[i].Add(1)
			runtime.Gosched()
			busy.Store(false)
		})
	}
	s.Close()
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Fatalf("step %d ran %d times", i, c)
		}
	}
	if len(arenas) == 0 || len(arenas) > 3 {
		t.Fatalf("%d arenas served the steps, want 1..3", len(arenas))
	}

	SetMaxWorkers(1)
	inline := NewSlots(1)
	var got *Workspace
	for i := 0; i < 3; i++ {
		done := false
		inline.Go(func(ws *Workspace) { done, got = true, ws })
		if !done || got == nil {
			t.Fatal("a single slot did not run the step inside Go")
		}
	}
	inline.Close()
}
