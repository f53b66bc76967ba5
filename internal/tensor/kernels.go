package tensor

import (
	"math"
	"sync"
)

// All three matmul variants funnel into one packed engine, runPacked. It
// packs one operand into zero-padded column panels (a row copy when that
// operand is stored k-major, a transposing gather otherwise), brings the
// other into row-major form (MatMulTransA transposes a once into pooled
// scratch), and sweeps each panel over every row while the panel is still
// in cache. Normally the packed operand is b; under AVX2, MatMulTransB packs
// a instead when a has fewer rows, computing cᵀ = b·aᵀ and transposing it
// back (swapOperands). Every choice reads only the shape and the CPU feature.
//
// The panel kernels, by output width and CPU:
//   - AVX2, more than 24 columns (or fewer than 4 rows): mmPanel32, one row
//     against a 32-lane panel in four YMM accumulator chains;
//   - AVX2, up to 24 columns: mmTile4x8, four rows against an 8-lane panel,
//     one YMM chain per row, so a narrow output pads to 8 lanes, not 32;
//   - elsewhere: mmRow, one row against an 8-lane panel in 8 scalar
//     accumulators, the widest tile gc keeps in registers without spills.
//
// Products with only a few rows (or few flops) skip the engine and stream b
// where it lies: MatMul by axpy rows (matMulSmall), MatMulTransB by a 1×8
// dot tile (dotRows).
//
// A weight that stays frozen across many products (a served model between
// versions) is packed once instead (PackedB): MatMulTransBPacked sweeps its
// panels where MatMulTransB would stream or pack it.
//
// mmRow and the streamed kernels skip p where their row operand's element
// is exactly zero, like the original axpy kernels; that operand is always a.
// Post-ReLU activations and gradients are heavily sparse, so on the training
// path this skips a large fraction of the madds.
//
// Bit-exactness contract: every output element is produced by exactly one
// accumulator whose additions run in ascending p order, one
// `acc += float32(a*b)` per p (the conversion forbids fusing the multiply
// into the add, which arm64's compiler would otherwise do), zero products
// possibly skipped. For finite operands this is bit-identical to the
// previous kernels: a·b == b·a, skipped terms are ±0 products, and a float32
// sum chain that only ever adds terms can never sit at -0, so adding a ±0
// product never changes the accumulator (pinned by
// TestBlockedMatMulMatchesReferenceBitExact and the testkit goldens).

// mmNR is the 8-lane panel width: mmRow's 8 scalar accumulators, or one
// YMM register per row in the narrow tile.
const mmNR = 8

// mmNRWide is the AVX2 wide panel: one row against 32 packed columns, four
// YMM accumulator chains deep enough to hide VADDPS latency.
const mmNRWide = 32

// mmMR is the narrow tile's height: mmTile4x8 holds four rows × 8 lanes in
// four YMM accumulator chains.
const mmMR = 4

// mmNarrow is the widest output the narrow tile takes under AVX2: up to 24
// columns, three 8-lane panels pad less than one 32-lane panel.
const mmNarrow = 24

// mmSmall is the flop threshold below which the packed path is not worth
// the panel-packing pass (gradcheck drives thousands of tiny matmuls).
const mmSmall = 4096

// Skinny products stream b in place instead of packing it. Packing costs one
// pass over b whatever m is; streaming costs one pass per row of a, so below
// a few rows the pack is most of the product (fc1's 200×1600 weights are
// 1.28 MB, re-packed per call). The crossovers were measured at fc1's shape
// (DESIGN.md §9) and differ by layout: packing bᵀ is a 32-lane strided
// gather, packing b a row copy.
const (
	mmStreamTB = 6 // MatMulTransB streams b while m < mmStreamTB
	mmStreamNN = 2 // MatMul streams b while m < mmStreamNN
)

// packBuf is a pooled scratch buffer: data holds packed panels, a
// transposed row operand or dotRows' nonzero values, out a swapped
// product's result, idx dotRows' nonzero positions. A swapped product keeps
// its result in the same buffer as its panels, so a MatMulTransB takes one
// buffer from the pool whichever operand it packs.
type packBuf struct {
	data, out []float32
	idx       []int32
}

var packPool = sync.Pool{New: func() any { return new(packBuf) }}

// getPack returns a pooled buffer whose data holds n floats (contents
// dirty).
func getPack(n int) *packBuf {
	b := packPool.Get().(*packBuf)
	b.data = resize(b.data, n)
	return b
}

// resize returns s with length n, reallocated only when it is too short
// (contents dirty).
func resize(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

func putPack(b *packBuf) { packPool.Put(b) }

// packPanels copies b (k×n, row-major) into 8-column panels: panel pj holds
// columns [8pj, 8pj+8) contiguously per p, zero-padding the final partial
// panel. Padded lanes feed accumulators that are never stored.
func packPanels(dst, b []float32, k, n int) {
	nPanels := (n + mmNR - 1) / mmNR
	for pj := 0; pj < nPanels; pj++ {
		j0 := pj * mmNR
		w := n - j0
		if w > mmNR {
			w = mmNR
		}
		out := dst[pj*k*mmNR:]
		if w == mmNR {
			for p := 0; p < k; p++ {
				src := b[p*n+j0:][:8]
				o := out[p*8:][:8]
				o[0], o[1], o[2], o[3] = src[0], src[1], src[2], src[3]
				o[4], o[5], o[6], o[7] = src[4], src[5], src[6], src[7]
			}
			continue
		}
		for p := 0; p < k; p++ {
			o := out[p*8 : p*8+8]
			o[0], o[1], o[2], o[3] = 0, 0, 0, 0
			o[4], o[5], o[6], o[7] = 0, 0, 0, 0
			copy(o, b[p*n+j0:][:w])
		}
	}
}

// packPanelsT packs panels of bᵀ directly from row-major b (n×k): panel pj
// lane l at depth p holds b[(8pj+l)*k+p]. Each full panel streams 8 rows of
// b sequentially, so the transpose costs one pass over b.
func packPanelsT(dst, b []float32, k, n int) {
	nPanels := (n + mmNR - 1) / mmNR
	for pj := 0; pj < nPanels; pj++ {
		j0 := pj * mmNR
		w := n - j0
		if w > mmNR {
			w = mmNR
		}
		out := dst[pj*k*mmNR:]
		if w == mmNR {
			b0 := b[(j0+0)*k:][:k]
			b1 := b[(j0+1)*k:][:k]
			b2 := b[(j0+2)*k:][:k]
			b3 := b[(j0+3)*k:][:k]
			b4 := b[(j0+4)*k:][:k]
			b5 := b[(j0+5)*k:][:k]
			b6 := b[(j0+6)*k:][:k]
			b7 := b[(j0+7)*k:][:k]
			for p := 0; p < k; p++ {
				o := out[p*8:][:8]
				o[0], o[1], o[2], o[3] = b0[p], b1[p], b2[p], b3[p]
				o[4], o[5], o[6], o[7] = b4[p], b5[p], b6[p], b7[p]
			}
			continue
		}
		for p := 0; p < k; p++ {
			o := out[p*8 : p*8+8]
			o[0], o[1], o[2], o[3] = 0, 0, 0, 0
			o[4], o[5], o[6], o[7] = 0, 0, 0, 0
			for l := 0; l < w; l++ {
				o[l] = b[(j0+l)*k+p]
			}
		}
	}
}

// packPanels32 is packPanels with 32-column panels for the AVX2 kernel.
func packPanels32(dst, b []float32, k, n int) {
	nPanels := (n + mmNRWide - 1) / mmNRWide
	for pj := 0; pj < nPanels; pj++ {
		j0 := pj * mmNRWide
		w := n - j0
		if w > mmNRWide {
			w = mmNRWide
		}
		out := dst[pj*k*mmNRWide:]
		if w == mmNRWide {
			for p := 0; p < k; p++ {
				copy(out[p*mmNRWide:][:mmNRWide], b[p*n+j0:][:mmNRWide])
			}
			continue
		}
		for p := 0; p < k; p++ {
			o := out[p*mmNRWide : p*mmNRWide+mmNRWide]
			for x := range o {
				o[x] = 0
			}
			copy(o, b[p*n+j0:][:w])
		}
	}
}

// packPanelsT32 is packPanelsT with 32-column panels: per p it gathers one
// element from each of 32 b-row streams, so at most 32 source cache lines
// are live and each is reused for 16 consecutive p.
func packPanelsT32(dst, b []float32, k, n int) {
	nPanels := (n + mmNRWide - 1) / mmNRWide
	for pj := 0; pj < nPanels; pj++ {
		j0 := pj * mmNRWide
		w := n - j0
		if w > mmNRWide {
			w = mmNRWide
		}
		out := dst[pj*k*mmNRWide:]
		for p := 0; p < k; p++ {
			o := out[p*mmNRWide : p*mmNRWide+mmNRWide]
			if w < mmNRWide {
				for x := range o {
					o[x] = 0
				}
			}
			idx := j0*k + p
			for l := 0; l < w; l++ {
				o[l] = b[idx]
				idx += k
			}
		}
	}
}

// transposeInto writes a (k×m, row-major) into dst as (m×k). The inner loop
// walks one source row while cycling through m destination cache lines, each
// hit 16 times over consecutive p before eviction matters.
func transposeInto(dst, a []float32, k, m int) {
	for p := 0; p < k; p++ {
		row := a[p*m:][:m]
		for i, v := range row {
			dst[i*k+p] = v
		}
	}
}

// store8 writes up to 8 accumulated values into one output row.
func store8(row []float32, w int, s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	if w == mmNR {
		r := row[:8]
		r[0], r[1], r[2], r[3] = s0, s1, s2, s3
		r[4], r[5], r[6], r[7] = s4, s5, s6, s7
		return
	}
	s := [8]float32{s0, s1, s2, s3, s4, s5, s6, s7}
	copy(row[:w], s[:w])
}

// sweep32 computes o (rows×cols) = r·p with the 32-lane AVX2 panel,
// panel-major: each packed panel of p is swept over every row of r while it
// is still in cache. Full panels accumulate straight into o; the final
// partial panel lands in stack scratch first.
func sweep32(o, r, pk []float32, rows, cols, k int) {
	for j0 := 0; j0 < cols; j0 += mmNRWide {
		panel := &pk[j0*k]
		if w := cols - j0; w < mmNRWide {
			var buf [mmNRWide]float32
			for i := 0; i < rows; i++ {
				mmPanel32(&buf[0], &r[i*k], panel, k)
				copy(o[i*cols+j0:][:w], buf[:w])
			}
			return
		}
		for i := 0; i < rows; i++ {
			mmPanel32(&o[i*cols+j0], &r[i*k], panel, k)
		}
	}
}

// sweepTile is sweep32 over 8-lane panels with the AVX2 narrow tile, four
// rows at a time. A row count that is not a multiple of four ends with a
// block overlapping the one before it, whose shared rows it rewrites with
// the same values.
func sweepTile(o, r, pk []float32, rows, cols, k int) {
	for j0 := 0; j0 < cols; j0 += mmNR {
		panel := &pk[j0*k]
		w := min(cols-j0, mmNR)
		for i := 0; i < rows; i += mmMR {
			i := min(i, rows-mmMR)
			if w == mmNR {
				mmTile4x8(&o[i*cols+j0], cols, &r[i*k], k, panel, k)
				continue
			}
			var buf [mmMR * mmNR]float32
			mmTile4x8(&buf[0], mmNR, &r[i*k], k, panel, k)
			for x := 0; x < mmMR; x++ {
				copy(o[(i+x)*cols+j0:][:w], buf[x*mmNR:][:w])
			}
		}
	}
}

// sweep8 is the portable sweep: 8-lane panels, one row at a time through
// mmRow.
func sweep8(o, r, pk []float32, rows, cols, k int) {
	for j0 := 0; j0 < cols; j0 += mmNR {
		panel := pk[j0*k:][:k*mmNR]
		w := min(cols-j0, mmNR)
		for i := 0; i < rows; i++ {
			mmRow(o[i*cols+j0:][:w], r[i*k:][:k], panel)
		}
	}
}

// mmRow computes up to 8 outputs of one row with the portable 1×8
// zero-skipping micro-kernel: ar is the row (k floats), pb one packed
// 8-lane panel, len(crow) the lanes to store.
func mmRow(crow, ar, pb []float32) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for p, av := range ar {
		if av == 0 {
			continue
		}
		bq := pb[p*8:][:8]
		s0 += float32(av * bq[0])
		s1 += float32(av * bq[1])
		s2 += float32(av * bq[2])
		s3 += float32(av * bq[3])
		s4 += float32(av * bq[4])
		s5 += float32(av * bq[5])
		s6 += float32(av * bq[6])
		s7 += float32(av * bq[7])
	}
	store8(crow, len(crow), s0, s1, s2, s3, s4, s5, s6, s7)
}

// Matmul operand layouts handled by runPacked.
const (
	mmPlain  = iota // a (m×k), b (k×n)
	mmTransA        // a (k×m), b (k×n)
	mmTransB        // a (m×k), b (n×k)
)

// runPacked computes c = op(a)·op(b) (m×n) through the packed engine. It
// packs b, unless swapOperands says a is the cheaper side: then it computes
// cᵀ = op(b)ᵀ·op(a)ᵀ into scratch and transposes it back. Either way
// every output is one ascending-p chain of the same products, since a·b ==
// b·a in IEEE arithmetic.
func runPacked(c, a, b []float32, m, n, k, mode int) {
	pk := packPool.Get().(*packBuf)
	aByK, bByK := mode == mmTransA, mode != mmTransB
	if swapOperands(m, n, mode) {
		pk.out = resize(pk.out, n*m)
		product(pk, pk.out, b, a, n, m, k, bByK, aByK)
		transposeInto(c, pk.out, n, m)
	} else {
		product(pk, c, a, b, m, n, k, aByK, bByK)
	}
	putPack(pk)
}

// product computes o (rows×cols) = r·p over the shared dimension k, packing
// into pk. r supplies the rows, stored rows×k, or k×rows when rByK (then
// transposed once into a second pooled buffer). p is packed into
// zero-padded column panels, from k×cols when pByK (a row copy) or cols×k
// (a transposing gather).
func product(pk *packBuf, o, r, p []float32, rows, cols, k int, rByK, pByK bool) {
	var rt *packBuf
	if rByK {
		rt = getPack(rows * k)
		transposeInto(rt.data, r, k, rows)
		r = rt.data
	}
	wide := useWideKernel && (cols > mmNarrow || rows < mmMR)
	pk.data = pack(pk.data, p, k, cols, pByK, wide)
	sweep(o, r, pk.data, rows, cols, k, wide)
	if rt != nil {
		putPack(rt)
	}
}

// pack packs p (k×cols when pByK, cols×k otherwise) into dst's zero-padded
// column panels, 32 lanes wide when wide and 8 otherwise, and returns dst
// resized to hold them (reallocated only when it is too short).
func pack(dst, p []float32, k, cols int, pByK, wide bool) []float32 {
	nr := mmNR
	if wide {
		nr = mmNRWide
	}
	dst = resize(dst, (cols+nr-1)/nr*nr*k)
	switch {
	case wide && pByK:
		packPanels32(dst, p, k, cols)
	case wide:
		packPanelsT32(dst, p, k, cols)
	case pByK:
		packPanels(dst, p, k, cols)
	default:
		packPanelsT(dst, p, k, cols)
	}
	return dst
}

// sweep computes o (rows×cols) = r·pk with the kernel that matches pk's
// panels: the 32-lane panel when wide, the narrow tile under AVX2, mmRow
// elsewhere.
func sweep(o, r, pk []float32, rows, cols, k int, wide bool) {
	switch {
	case wide:
		sweep32(o, r, pk, rows, cols, k)
	case useWideKernel:
		sweepTile(o, r, pk, rows, cols, k)
	default:
		sweep8(o, r, pk, rows, cols, k)
	}
}

// swapOperands reports whether runPacked packs a instead of b: under
// MatMulTransB both operands are rows of length k, so the AVX2 kernels pack
// the one with fewer rows (crossovers in DESIGN.md §9). MatMul and
// MatMulTransA pack b by a row copy; swapping would trade that for a
// transposing gather, so they never swap. The portable path never swaps
// either: its mmRow skips the row operand's zeros, and swapping would make
// that the dense weight instead of the sparse activation.
func swapOperands(m, n, mode int) bool {
	return useWideKernel && mode == mmTransB && m < n
}

// MatMul computes c = a·b for a (m×k), b (k×n), c (m×n). c must not alias
// a or b.
func MatMul(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMul shape mismatch")
	}
	if m < mmStreamNN || m*n*k <= mmSmall {
		matMulSmall(c.Data, a.Data, b.Data, m, n, k, false)
		return
	}
	runPacked(c.Data, a.Data, b.Data, m, n, k, mmPlain)
}

// MatMulTransA computes c = aᵀ·b for a (k×m), b (k×n), c (m×n).
func MatMulTransA(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulTransA shape mismatch")
	}
	if m*n*k <= mmSmall {
		matMulSmall(c.Data, a.Data, b.Data, m, n, k, true)
		return
	}
	runPacked(c.Data, a.Data, b.Data, m, n, k, mmTransA)
}

// MatMulTransB computes c = a·bᵀ for a (m×k), b (n×k), c (m×n).
func MatMulTransB(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulTransB shape mismatch")
	}
	if streamsTB(m, n, k) {
		dotRows(c.Data, a.Data, b.Data, m, n, k)
		return
	}
	runPacked(c.Data, a.Data, b.Data, m, n, k, mmTransB)
}

// PackedB is the weight operand b (n×k) of c = a·bᵀ packed once into the
// panels the engine sweeps, for a weight that stays frozen across many
// products (a served model between versions). It keeps b: Repack refills
// the same panels from b's current values, and a product that packs a
// instead (swapOperands) reads b where it lies. Under AVX2 the panels are
// 32 lanes wide, the layout MatMulTransB packs for few rows; elsewhere 8.
type PackedB struct {
	b      *Tensor
	panels []float32
}

// PackTransB packs b (n×k) for MatMulTransBPacked.
func PackTransB(b *Tensor) *PackedB {
	p := &PackedB{b: b}
	p.Repack()
	return p
}

// Repack refills the panels from b's current values, in place: a repack
// allocates nothing. It must not run beside a product that reads p.
func (p *PackedB) Repack() {
	p.panels = pack(p.panels, p.b.Data, p.b.Shape[1], p.b.Shape[0], false, useWideKernel)
}

// MatMulTransBPacked computes c = a·bᵀ for a (m×k) and b packed by
// PackTransB, bit-identical to MatMulTransB(c, a, b) for finite operands:
// where MatMulTransB would stream b or pack it, this sweeps the panels
// packed once; where it would pack a instead (swapOperands), this runs that
// product; and on the portable path a streamed product stays streamed. Each
// output is still one ascending-p chain of the same products, some ±0
// products aside. (A streamed product skips a's zeros and a swept one
// multiplies them, so an infinite weight can give NaN here where
// MatMulTransB does not.)
func MatMulTransBPacked(c, a *Tensor, b *PackedB) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.b.Shape[0], b.b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulTransBPacked shape mismatch")
	}
	stream := streamsTB(m, n, k)
	switch {
	case stream && !useWideKernel:
		// mmRow branches on every zero of a, where dotRows gathers the
		// nonzeros once: on the portable path a few rows stream faster than
		// they sweep even packed panels (DESIGN.md §9).
		dotRows(c.Data, a.Data, b.b.Data, m, n, k)
	case !stream && swapOperands(m, n, mmTransB):
		runPacked(c.Data, a.Data, b.b.Data, m, n, k, mmTransB)
	default:
		sweep(c.Data, a.Data, b.panels, m, n, k, useWideKernel)
	}
}

// streamsTB reports whether MatMulTransB streams b rather than packing an
// operand.
func streamsTB(m, n, k int) bool { return m < mmStreamTB || m*n*k <= mmSmall }

// matMulSmall is the unblocked path for tiny problems and single-row
// MatMul, streaming b row by row in the same ascending-p zero-skipping axpy
// order as the tiled kernel (and the original kernels).
func matMulSmall(c, a, b []float32, m, n, k int, transposeA bool) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for x := range crow {
			crow[x] = 0
		}
		for p := 0; p < k; p++ {
			var av float32
			if transposeA {
				av = a[p*m+i]
			} else {
				av = a[i*k+p]
			}
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for x, bv := range brow {
				crow[x] += float32(av * bv)
			}
		}
	}
}

// dotRows computes c = a·bᵀ for a (m×k), b (n×k) reading b where it lies:
// each row of a has its nonzero positions gathered once, then a 1×8 tile
// dots them against 8 rows of b. Every output is one accumulator fed in
// ascending p with zero products skipped, mmRow's arithmetic.
func dotRows(c, a, b []float32, m, n, k int) {
	pk := getPack(k)
	if cap(pk.idx) < k {
		pk.idx = make([]int32, k)
	}
	vals, idx := pk.data[:k], pk.idx[:k]
	for i := 0; i < m; i++ {
		// Gather without a data-dependent branch: every entry is written
		// and the count advances by one exactly when |av| has a bit set.
		nnz := 0
		for p, av := range a[i*k:][:k] {
			vals[nnz], idx[nnz] = av, int32(p)
			nnz += int((math.Float32bits(av)&0x7fffffff + 0x7fffffff) >> 31)
		}
		vs, ix := vals[:nnz], idx[:nnz]
		crow := c[i*n:][:n]
		j0 := 0
		for ; j0+mmNR <= n; j0 += mmNR {
			b0 := b[(j0+0)*k:][:k]
			b1 := b[(j0+1)*k:][:k]
			b2 := b[(j0+2)*k:][:k]
			b3 := b[(j0+3)*k:][:k]
			b4 := b[(j0+4)*k:][:k]
			b5 := b[(j0+5)*k:][:k]
			b6 := b[(j0+6)*k:][:k]
			b7 := b[(j0+7)*k:][:k]
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for q, p := range ix {
				av := vs[q]
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
				s4 += float32(av * b4[p])
				s5 += float32(av * b5[p])
				s6 += float32(av * b6[p])
				s7 += float32(av * b7[p])
			}
			store8(crow[j0:], mmNR, s0, s1, s2, s3, s4, s5, s6, s7)
		}
		for ; j0 < n; j0++ {
			br := b[j0*k:][:k]
			var s float32
			for q, p := range ix {
				s += float32(vs[q] * br[p])
			}
			crow[j0] = s
		}
	}
	putPack(pk)
}

// inRange returns the range [lo, hi) of output positions o in [0, out)
// whose input coordinate o*stride+off lies in [0, n).
func inRange(off, n, stride, out int) (lo, hi int) {
	hi = min(out, max(n-1-off+stride, 0)/stride)
	return min(max(stride-1-off, 0)/stride, hi), hi
}

// tap is kernel tap (ky, kx)'s walk over an image plane, which it samples
// shifted by (ky, kx) at the stride: output rows [yLo, yHi) and columns
// [xLo, xHi) read the image, the rest the padding. off is the plane index
// of output (yLo, xLo)'s input pixel.
type tap struct{ yLo, yHi, xLo, xHi, off, w, stride, outW int }

func newTap(ky, kx, h, w, stride, pad, outH, outW int) tap {
	t := tap{w: w, stride: stride, outW: outW}
	t.yLo, t.yHi = inRange(ky-pad, h, stride, outH)
	t.xLo, t.xHi = inRange(kx-pad, w, stride, outW)
	if t.xLo == t.xHi {
		t.yHi = t.yLo // no column in the image: no row is either
	}
	t.off = (t.yLo*stride+ky-pad)*w + t.xLo*stride + kx - pad
	return t
}

// unroll writes the tap's samples of img into dst, one outH×outW plane of
// its column row, and zeroes the padding.
func (t *tap) unroll(dst, img []float32) {
	if t.yLo == t.yHi {
		clear(dst)
		return
	}
	seg := t.xHi - t.xLo
	lo, hi := t.yLo*t.outW+t.xLo, (t.yHi-1)*t.outW+t.xHi
	if t.stride == 1 && t.outW == t.w {
		// The row segments are one run of the plane; its gaps take wrapped
		// pixels, cleared below.
		copy(dst[lo:hi], img[t.off:])
	} else {
		for oy, s := t.yLo, t.off; oy < t.yHi; oy, s = oy+1, s+t.stride*t.w {
			d, src := dst[oy*t.outW+t.xLo:][:seg], img[s:]
			for x := range d {
				d[x] = src[x*t.stride]
			}
		}
	}
	clear(dst[:lo])
	clear(dst[hi:])
	for e := lo + seg; e < hi; e += t.outW {
		for i := e; i < e+t.outW-seg; i++ { // too short for a clear call
			dst[i] = 0
		}
	}
}

// scatter adds the tap's gradients src (one outH×outW plane of its column
// row) into the in-image pixels of img.
func (t *tap) scatter(img, src []float32) {
	seg := t.xHi - t.xLo
	for oy, s := t.yLo, t.off; oy < t.yHi; oy, s = oy+1, s+t.stride*t.w {
		r, d := src[oy*t.outW+t.xLo:][:seg], img[s:]
		if t.stride == 1 {
			d = d[:len(r)]
			for x, v := range r {
				d[x] += v
			}
			continue
		}
		for x, v := range r {
			d[x*t.stride] += v
		}
	}
}

// Im2ColWS unrolls input (batch, ch, h, w) into the tap-major columns of
// its kh×kw patches (stride, zero padding): a (ch*kh*kw, batch*outH*outW)
// matrix, row (ch, ky, kx) that tap's input at every output position. It is
// drawn from ws (nil allocates) and fully written, so it may come dirty.
func Im2ColWS(ws *Workspace, in *Tensor, kh, kw, stride, pad int) *Tensor {
	b, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	outH, outW := (h+2*pad-kh)/stride+1, (w+2*pad-kw)/stride+1
	plane := outH * outW
	cols := ws.Get(c*kh*kw, b*plane)
	for q := 0; q < kh*kw; q++ {
		t := newTap(q/kw, q%kw, h, w, stride, pad, outH, outW)
		for ch := 0; ch < c; ch++ {
			row := cols.Data[(ch*kh*kw+q)*b*plane:]
			for n := 0; n < b; n++ {
				t.unroll(row[n*plane:][:plane], in.Data[(n*c+ch)*h*w:][:h*w])
			}
		}
	}
	return cols
}

// Col2ImWS, the adjoint of Im2ColWS, adds columns into a zeroed (batch, ch,
// h, w) tensor from ws, so every pixel's sum starts at +0. Its taps run in
// descending (ky, kx) order: a larger tap reaches a pixel from a smaller
// output position, so every pixel sums in ascending output-position order.
func Col2ImWS(ws *Workspace, cols *Tensor, b, c, h, w, kh, kw, stride, pad int) *Tensor {
	outH, outW := (h+2*pad-kh)/stride+1, (w+2*pad-kw)/stride+1
	plane := outH * outW
	out := ws.GetZeroed(b, c, h, w)
	for q := kh*kw - 1; q >= 0; q-- {
		t := newTap(q/kw, q%kw, h, w, stride, pad, outH, outW)
		for ch := 0; ch < c; ch++ {
			row := cols.Data[(ch*kh*kw+q)*b*plane:]
			for n := 0; n < b; n++ {
				t.scatter(out.Data[(n*c+ch)*h*w:][:h*w], row[n*plane:][:plane])
			}
		}
	}
	return out
}
