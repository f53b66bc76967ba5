package tensor

import (
	"fmt"
	"math"
	"testing"
)

func f32bits(v float32) uint32 { return math.Float32bits(v) }

// Seed-style reference kernels, kept deliberately naive. refMatMul is the
// original row-axpy loop with the zero-skip (c[i,:] += a[i,p]*b[p,:] for
// ascending p, skipping a[i,p]==0); refMatMulTransB is the original dense
// row-dot. The blocked/packed engine promises bit identity with these: every
// output element is one accumulator fed in ascending p order, one add per
// nonzero product. See the contract note atop kernels.go.
func refMatMul(c, a, b *Tensor, transA bool) {
	var m, k int
	if transA {
		k, m = a.Shape[0], a.Shape[1]
	} else {
		m, k = a.Shape[0], a.Shape[1]
	}
	n := b.Shape[1]
	for i := range c.Data {
		c.Data[i] = 0
	}
	for i := 0; i < m; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			var av float32
			if transA {
				av = a.Data[p*m+i]
			} else {
				av = a.Data[i*k+p]
			}
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulTransB(c, a, bT *Tensor) {
	refMatMulSmallTB(c.Data, a.Data, bT.Data, a.Shape[0], bT.Shape[0], a.Shape[1])
}

// refMatMulSmallTB is the retired unblocked c = a·bᵀ fallback, verbatim:
// plain row-dot-row products, ascending p, no zero-skip. dotRows replaced it.
func refMatMulSmallTB(c, a, b []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for jc := 0; jc < n; jc++ {
			brow := b[jc*k : (jc+1)*k]
			var s float32
			for p, av := range arow {
				s += float32(av * brow[p])
			}
			crow[jc] = s
		}
	}
}

// sparsify zeroes roughly half the entries (the post-ReLU regime the
// zero-skip exists for), including exact-zero products the packed kernels
// must skip identically.
func sparsify(r *testRand, t *Tensor) {
	for i := range t.Data {
		if r.intn(2) == 0 {
			t.Data[i] = 0
		}
	}
}

// TestBlockedMatMulMatchesReferenceBitExact pins the engine's bit-exactness
// contract: the packed 8-wide, 32-wide (AVX2) and narrow-tile kernels, the
// transpose-pack paths, the swapped operands, partial trailing panels, the
// streamed skinny products on both sides of their crossovers, and the
// small-product fallback must all reproduce the seed kernels' outputs bit
// for bit, on dense operands, post-ReLU-sparse left operands, and operands
// that are both sparse.
func TestBlockedMatMulMatchesReferenceBitExact(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	shapes := []struct{ m, k, n int }{
		{16, 16, 16},  // m*n*k == mmSmall: unblocked fallback
		{7, 19, 77},   // wide path, partial 32-panel (77 = 2*32 + 13)
		{33, 40, 64},  // wide path, exact panels
		{1, 128, 128}, // single row, streamed
		{64, 3, 33},   // tiny k, one trailing column past a panel
		{12, 50, 5},   // n <= mmNR: one partial 8-lane panel
		{96, 31, 8},   // n == mmNR boundary
		{2, 2100, 9},  // k past 2048: the nonzero-index scratch is pooled
	}
	// Every row count from streamed to packed, with n and k straddling the
	// 8- and 32-wide panels, and fc1's forward (k 1600 → n 200) and input
	// gradient (k 200 → n 1600) shapes.
	for m := 1; m <= mmStreamTB+2; m++ {
		for _, kn := range [][2]int{{7, 9}, {31, 33}, {33, 31}, {1600, 200}, {200, 1600}} {
			shapes = append(shapes, struct{ m, k, n int }{m, kn[0], kn[1]})
		}
	}
	// The narrow tile's width (n <= mmNarrow) and height (at least mmMR
	// rows), with full and partial 8-lane panels and row counts that end on
	// an overlapping block.
	for m := mmMR - 1; m <= 2*mmMR+1; m++ {
		for _, n := range []int{mmNR, mmNR + 1, mmNarrow - 1, mmNarrow, mmNarrow + 1, 33} {
			shapes = append(shapes, struct{ m, k, n int }{m, 100, n})
		}
	}
	// Both sides of the operand swap (under AVX2, MatMulTransB packs a while
	// m < n), with the swapped product on the narrow tile and on the wide
	// panel.
	for _, n := range []int{mmNarrow + 1, 40} {
		for _, m := range []int{mmNarrow, mmNarrow + 1, n - 1, n, n + 1} {
			shapes = append(shapes, struct{ m, k, n int }{m, 60, n})
		}
	}
	// Every matmul of a Cipher training step (cipherStepShapes) at serving's
	// batch 1, the ruler's LBS 2 and 32, batch 25, and the simulator's
	// batch 30 on its 8×8, 3-class task.
	for _, g := range []struct{ batch, side, classes int }{{1, 16, 10}, {2, 16, 10}, {25, 16, 10}, {32, 16, 10}, {30, 8, 3}} {
		for _, s := range cipherStepShapes(g.batch, g.side, g.classes) {
			shapes = append(shapes, struct{ m, k, n int }{s.m, s.k, s.n})
		}
	}
	for _, sparse := range []string{"dense", "sparse a", "sparse a and b"} {
		for _, s := range shapes {
			r := newTestRand(int64(s.m*1000 + s.k*10 + s.n))
			a := randTensor(r, s.m, s.k)
			b := randTensor(r, s.k, s.n)
			aT := randTensor(r, s.k, s.m)
			bT := randTensor(r, s.n, s.k)
			if sparse != "dense" {
				sparsify(r, a)
				sparsify(r, aT)
			}
			if sparse == "sparse a and b" {
				sparsify(r, b)
				sparsify(r, bT)
			}
			got, want := New(s.m, s.n), New(s.m, s.n)

			MatMul(got, a, b)
			refMatMul(want, a, b, false)
			diffIndex(t, "MatMul "+sparse, s.m, s.k, s.n, sparse == "dense", got, want)

			MatMulTransA(got, aT, b)
			refMatMul(want, aT, b, true)
			diffIndex(t, "MatMulTransA "+sparse, s.m, s.k, s.n, sparse == "dense", got, want)

			MatMulTransB(got, a, bT)
			refMatMulTransB(want, a, bT)
			diffIndex(t, "MatMulTransB "+sparse, s.m, s.k, s.n, sparse == "dense", got, want)
		}
	}
}

// TestStreamedRowsSkipZeros: a streamed product skips a's zeros exactly as
// mmRow does, so a zero in a never meets b's Inf (0·Inf is NaN). For finite
// operands skipping is unobservable (DESIGN.md §9), which is why the poison
// is needed to see it.
func TestStreamedRowsSkipZeros(t *testing.T) {
	const k, n = 40, 19
	r := newTestRand(5)
	inf := float32(math.Inf(1))
	for m := 1; m < mmStreamTB; m++ {
		a := randTensor(r, m, k)
		sparsify(r, a)
		bT := randTensor(r, n, k)
		poisoned := bT.Clone()
		for p := 0; p < k; p++ {
			zero := true
			for i := 0; i < m; i++ {
				zero = zero && a.Data[i*k+p] == 0
			}
			for j := 0; zero && j < n; j++ {
				poisoned.Data[j*k+p] = inf
			}
		}
		got, want := New(m, n), New(m, n)
		MatMulTransB(got, a, poisoned)
		refMatMulTransB(want, a, bT)
		diffIndex(t, "MatMulTransB zero-skip", m, k, n, false, got, want)
		if m >= mmStreamNN {
			continue
		}
		b, pb := New(k, n), New(k, n)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				b.Data[p*n+j], pb.Data[p*n+j] = bT.Data[j*k+p], poisoned.Data[j*k+p]
			}
		}
		MatMul(got, a, pb)
		refMatMul(want, a, b, false)
		diffIndex(t, "MatMul zero-skip", m, k, n, false, got, want)
	}
}

// TestSkinnyProductsDoNotAllocate: a streamed product, and a swapped one
// (under AVX2, MatMulTransB with fewer rows in a than in b), take their
// scratch from the pack pool, whatever k is. Under the race detector the pool drops a
// quarter of what it is given, and each drop costs the next call three
// allocations; AllocsPerRun's count is whole allocations per call, so the
// run is long enough for that average (0.75) to read 0 every time.
func TestSkinnyProductsDoNotAllocate(t *testing.T) {
	r := newTestRand(6)
	for _, mn := range [][2]int{{1, 9}, {8, 40}} {
		m, n := mn[0], mn[1]
		a, b := randTensor(r, m, 2100), randTensor(r, n, 2100)
		c := New(m, n)
		MatMulTransB(c, a, b) // warm the pool
		if allocs := testing.AllocsPerRun(1000, func() { MatMulTransB(c, a, b) }); allocs != 0 {
			t.Fatalf("%d×%d MatMulTransB allocates %v times per call, want 0", m, n, allocs)
		}
	}
}

// TestPackedWeightMatchesTransBBitExact: a product over a weight packed
// once must equal MatMulTransB bit for bit on every path the entry takes
// (the streamed rows, the swapped product and the sweep over the held
// panels), at widths on both sides of the narrow tile and the 32-lane panel,
// on dense and post-ReLU activations. Each (n, k) packs once; every case
// refills the weight with new values and repacks in place, so a repack that
// misses must show up as stale outputs.
func TestPackedWeightMatchesTransBBitExact(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 33, 201}
	for _, n := range []int{10, 24, 25, 100, 200} {
		for _, k := range []int{9, 180, 1600} {
			r := newTestRand(int64(n*10000 + k))
			w := randTensor(r, n, k)
			pw := PackTransB(w)
			for _, m := range ms {
				for _, relu := range []bool{false, true} {
					for i := range w.Data {
						w.Data[i] = r.float32()
					}
					pw.Repack()
					a := randTensor(r, m, k)
					if relu {
						for i, v := range a.Data {
							a.Data[i] = max(v, 0)
						}
					}
					got, want := New(m, n), New(m, n)
					MatMulTransBPacked(got, a, pw)
					MatMulTransB(want, a, w)
					diffIndex(t, "MatMulTransBPacked", m, k, n, !relu, got, want)
				}
			}
		}
	}
}

func diffIndex(t *testing.T, name string, m, k, n int, dense bool, got, want *Tensor) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s (%dx%dx%d dense=%v) not bit-exact at %d: got %v want %v (bits %08x vs %08x)",
				name, m, k, n, dense, i, got.Data[i], want.Data[i],
				f32bits(got.Data[i]), f32bits(want.Data[i]))
		}
	}
}

// TestWorkspaceReuseSameBacking verifies the arena's recycling and ownership
// rules: a Put buffer comes back from the same size class with the same
// backing array; foreign tensors and views never enter the free lists.
func TestWorkspaceReuseSameBacking(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(64, 8)
	if len(a.Data) != 512 {
		t.Fatalf("Get(64,8) len = %d", len(a.Data))
	}
	p := &a.Data[0]
	ws.Put(a)
	// Same class (512 elements), different shape: same backing array.
	b := ws.Get(16, 32)
	if &b.Data[0] != p {
		t.Fatal("workspace did not recycle the backing array within a class")
	}
	if b.Shape[0] != 16 || b.Shape[1] != 32 {
		t.Fatalf("recycled shape %v", b.Shape)
	}
	// Foreign tensors (New) and views (Reshape) are silently ignored by Put.
	ws.Put(New(64, 8))
	ws.Put(b.Reshape(512))
	ws.Put(b)
	c := ws.Get(512)
	if &c.Data[0] != p {
		t.Fatal("foreign tensor or view entered the free list ahead of the arena buffer")
	}
	// GetZeroed clears a dirty recycled buffer.
	c.Fill(3)
	ws.Put(c)
	z := ws.GetZeroed(512)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed left dirty value %v at %d", v, i)
		}
	}
	// nil workspace degrades to a plain allocation.
	var nilWS *Workspace
	d := nilWS.Get(3, 4)
	if len(d.Data) != 12 {
		t.Fatalf("nil workspace Get len = %d", len(d.Data))
	}
	nilWS.Put(d) // must not panic
}

// TestIm2ColWSZeroAlloc pins the Im2Col allocation fix: once the size class
// is warm, the im2col hot path performs no net heap allocations per call.
func TestIm2ColWSZeroAlloc(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	ws := NewWorkspace()
	r := newTestRand(9)
	in := randTensor(r, 4, 3, 12, 12)
	ws.Put(Im2ColWS(ws, in, 3, 3, 1, 1)) // warm the size class
	allocs := testing.AllocsPerRun(50, func() {
		ws.Put(Im2ColWS(ws, in, 3, 3, 1, 1))
	})
	if allocs != 0 {
		t.Fatalf("Im2ColWS allocates %v times per call on a warm workspace, want 0", allocs)
	}
}

// refPatchWalk carries the retired per-element patch walks, verbatim: every
// kx tested against the image bounds one at a time.
type refPatchWalk patchWalk

// unroll copies batch image n's patches into cols, zero-filling the padding.
func (p *refPatchWalk) unroll(n int) {
	c, h, w := p.c, p.h, p.w
	for oy := 0; oy < p.outH; oy++ {
		for ox := 0; ox < p.outW; ox++ {
			row := p.cols[((n*p.outH+oy)*p.outW+ox)*p.rowLen:][:p.rowLen]
			ri := 0
			for ch := 0; ch < c; ch++ {
				base := ((n * c) + ch) * h * w
				for ky := 0; ky < p.kh; ky++ {
					iy := oy*p.stride + ky - p.pad
					for kx := 0; kx < p.kw; kx++ {
						ix := ox*p.stride + kx - p.pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							row[ri] = p.img[base+iy*w+ix]
						} else {
							row[ri] = 0
						}
						ri++
					}
				}
			}
		}
	}
}

// scatter adds batch image n's patch rows of cols back into img.
func (p *refPatchWalk) scatter(n int) {
	c, h, w := p.c, p.h, p.w
	for oy := 0; oy < p.outH; oy++ {
		for ox := 0; ox < p.outW; ox++ {
			row := p.cols[((n*p.outH+oy)*p.outW+ox)*p.rowLen:][:p.rowLen]
			ri := 0
			for ch := 0; ch < c; ch++ {
				base := ((n * c) + ch) * h * w
				for ky := 0; ky < p.kh; ky++ {
					iy := oy*p.stride + ky - p.pad
					for kx := 0; kx < p.kw; kx++ {
						ix := ox*p.stride + kx - p.pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							p.img[base+iy*w+ix] += row[ri]
						}
						ri++
					}
				}
			}
		}
	}
}

// TestPatchWalkMatchesReferenceBitExact holds Im2Col and Col2Im to the
// per-element walks bit for bit over kernel 1/3/5, stride 1/2, pad 0/1/2,
// and images from 1×1 and 2×2 (all border) to odd sizes. Im2Col draws a
// NaN-filled buffer, so an element it fails to write shows; Col2Im's
// interior pixels sum up to 25 contributions, so a changed order shows.
func TestPatchWalkMatchesReferenceBitExact(t *testing.T) {
	const b, c = 2, 3
	dirty := math.Float32frombits(0x7fc00001)
	r := newTestRand(21)
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range [][2]int{{1, 1}, {2, 2}, {5, 7}, {8, 6}} {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					name := fmt.Sprintf("k%d s%d p%d %dx%d", k, stride, pad, h, w)
					outH, outW := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
					rows, rowLen := b*outH*outW, c*k*k

					in := randTensor(r, b, c, h, w)
					ws := NewWorkspace()
					d := ws.Get(rows, rowLen)
					d.Fill(dirty)
					ws.Put(d)
					got := Im2ColWS(ws, in, k, k, stride, pad)
					want := New(rows, rowLen)
					ref := refPatchWalk{want.Data, in.Data, c, h, w, k, k, stride, pad, outH, outW, rowLen}
					for n := 0; n < b; n++ {
						ref.unroll(n)
					}
					sameBits(t, "Im2Col "+name, got.Data, want.Data)

					cols := randTensor(r, rows, rowLen)
					gotImg := Col2Im(cols, b, c, h, w, k, k, stride, pad)
					wantImg := New(b, c, h, w)
					ref = refPatchWalk{cols.Data, wantImg.Data, c, h, w, k, k, stride, pad, outH, outW, rowLen}
					for n := 0; n < b; n++ {
						ref.scatter(n)
					}
					sameBits(t, "Col2Im "+name, gotImg.Data, wantImg.Data)
				}
			}
		}
	}
}

func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if f32bits(got[i]) != f32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (bits %08x), want %v (bits %08x)",
				name, i, got[i], f32bits(got[i]), want[i], f32bits(want[i]))
		}
	}
}
