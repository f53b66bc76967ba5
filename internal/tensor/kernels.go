package tensor

import (
	"math"
	"sync"
)

// All three matmul variants funnel into one cache-blocked, register-tiled
// engine: B is packed into 8-column panels (transposing on the fly for
// MatMulTransB, which is cheap — 8 sequential row streams), A is transposed
// once into pooled scratch for MatMulTransA (replacing k×m strided reads per
// output row with one cache-blocked pass), and every output row is produced
// by a 1×8 micro-kernel carrying 8 scalar accumulators in registers across
// the shared dimension. 8 accumulators is the sweet spot for gc on amd64:
// wider tiles (4×4 = 16 live float32s) spill to the stack and run slower
// than a plain axpy loop. Products with only a few rows (or few flops) skip
// the engine and stream B where it lies: MatMul by axpy rows (matMulSmall),
// MatMulTransB by a 1×8 dot tile (dotRows).
//
// The micro-kernel skips p where a's element is exactly zero, like the
// original axpy kernels. Post-ReLU activations and gradients are heavily
// sparse, so on the training path this skips a large fraction of the madds.
//
// Bit-exactness contract: every output element is produced by exactly one
// accumulator whose additions run in ascending p order, one `acc += a*b` per
// p, zero products skipped. For finite operands this is bit-identical to the
// previous kernels — skipped terms are ±0 products, and a float32 sum chain
// that only ever adds terms can never sit at -0, so adding a ±0 product
// never changes the accumulator (pinned by
// TestBlockedMatMulMatchesReferenceBitExact and the testkit goldens).

// mmNR is the portable register tile width: one A row against 8 packed B
// columns (8 accumulators in XMM registers).
const mmNR = 8

// mmNRWide is the AVX2 tile width: one A row against 32 packed B columns,
// four YMM accumulator chains deep enough to hide VADDPS latency.
const mmNRWide = 32

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

// packBuf is a pooled panel-packing / transpose scratch buffer; idx holds
// dotRows' nonzero positions.
type packBuf struct {
	data []float32
	idx  []int32
}

var packPool = sync.Pool{New: func() any { return new(packBuf) }}

// getPack returns a pooled buffer of at least n floats (contents dirty).
func getPack(n int) *packBuf {
	b := packPool.Get().(*packBuf)
	if cap(b.data) < n {
		b.data = make([]float32, n)
	}
	b.data = b.data[:n]
	return b
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

// mmRowWide computes one output row of c = a·b with the 32-wide AVX2
// micro-kernel: a points at the row of a (k floats), bp holds the packed
// panels of b. Full panels accumulate straight into the output row; the
// final partial panel lands in stack scratch first.
func mmRowWide(crow []float32, a *float32, bp []float32, k int) {
	n := len(crow)
	nFull := n / mmNRWide
	for pj := 0; pj < nFull; pj++ {
		mmPanel32(&crow[pj*mmNRWide], a, &bp[pj*k*mmNRWide], k)
	}
	if rem := n - nFull*mmNRWide; rem > 0 {
		var buf [mmNRWide]float32
		mmPanel32(&buf[0], a, &bp[nFull*k*mmNRWide], k)
		copy(crow[nFull*mmNRWide:], buf[:rem])
	}
}

// mmRow computes one output row of c = a·b with the 1×8 zero-skipping
// micro-kernel: ar is the row of a, bp holds the packed panels of b.
func mmRow(crow, ar, bp []float32) {
	k, n := len(ar), len(crow)
	for j0 := 0; j0 < n; j0 += mmNR {
		pb := bp[j0*k:]
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			bq := pb[p*8:][:8]
			s0 += av * bq[0]
			s1 += av * bq[1]
			s2 += av * bq[2]
			s3 += av * bq[3]
			s4 += av * bq[4]
			s5 += av * bq[5]
			s6 += av * bq[6]
			s7 += av * bq[7]
		}
		w := n - j0
		if w > mmNR {
			w = mmNR
		}
		store8(crow[j0:], w, s0, s1, s2, s3, s4, s5, s6, s7)
	}
}

// Matmul operand layouts handled by runPacked.
const (
	mmPlain  = iota // a (m×k), b (k×n)
	mmTransA        // a (k×m), b (k×n)
	mmTransB        // a (m×k), b (n×k)
)

// runPacked dispatches the packed matmul: bring a into row-major form, pack
// panels of b (transposing when b is stored n×k), compute c row by row,
// recycle the scratch.
func runPacked(c, a, b []float32, m, n, k, mode int) {
	nr := mmNR
	wide := useWideKernel && n > mmNR
	if wide {
		nr = mmNRWide
	}
	nPanels := (n + nr - 1) / nr
	pk := getPack(nPanels * k * nr)
	switch {
	case mode == mmTransB && wide:
		packPanelsT32(pk.data, b, k, n)
	case mode == mmTransB:
		packPanelsT(pk.data, b, k, n)
	case wide:
		packPanels32(pk.data, b, k, n)
	default:
		packPanels(pk.data, b, k, n)
	}
	var at *packBuf
	if mode == mmTransA {
		at = getPack(m * k)
		transposeInto(at.data, a, k, m)
		a = at.data
	}
	for i := 0; i < m; i++ {
		if wide {
			mmRowWide(c[i*n:(i+1)*n], &a[i*k], pk.data, k)
		} else {
			mmRow(c[i*n:(i+1)*n], a[i*k:][:k], pk.data)
		}
	}
	if at != nil {
		putPack(at)
	}
	putPack(pk)
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
	if m < mmStreamTB || m*n*k <= mmSmall {
		dotRows(c.Data, a.Data, b.Data, m, n, k)
		return
	}
	runPacked(c.Data, a.Data, b.Data, m, n, k, mmTransB)
}

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
				crow[x] += av * bv
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
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
				s4 += av * b4[p]
				s5 += av * b5[p]
				s6 += av * b6[p]
				s7 += av * b7[p]
			}
			store8(crow[j0:], mmNR, s0, s1, s2, s3, s4, s5, s6, s7)
		}
		for ; j0 < n; j0++ {
			br := b[j0*k:][:k]
			var s float32
			for q, p := range ix {
				s += vs[q] * br[p]
			}
			crow[j0] = s
		}
	}
	putPack(pk)
}

// patchWalk is the geometry of one convolution's patch unrolling, shared by
// Im2Col and its adjoint: cols holds one rowLen-long patch row per output
// position, img the (batch, c, h, w) image tensor.
type patchWalk struct {
	cols, img                                        []float32
	c, h, w, kh, kw, stride, pad, outH, outW, rowLen int
}

// Both walks visit output positions in order and, per position, one
// kw-long segment of the patch row per (channel, ky). Every segment of a
// position has the same in-image kx range [lo, hi), and the segments whose
// ky is in-image form one ky range, so the in-image part moves as blocks:
// unroll copies them (after zeroing a border window's whole row), scatter
// accumulates them and skips the rest. Border positions take the same path
// as interior ones with narrower ranges.

// span returns the range [lo, hi) of offsets t in [0, k) with 0 <= x0+t < n.
func span(x0, k, n int) (lo, hi int) {
	lo = min(max(-x0, 0), k)
	hi = min(max(n-x0, lo), k)
	return lo, hi
}

// unroll copies batch image n's patches into cols, zero-filling the padding.
func (p *patchWalk) unroll(n int) {
	img := p.img[n*p.c*p.h*p.w:][:p.c*p.h*p.w]
	for oy := 0; oy < p.outH; oy++ {
		for ox := 0; ox < p.outW; ox++ {
			row := p.cols[((n*p.outH+oy)*p.outW+ox)*p.rowLen:][:p.rowLen]
			unrollAt(row, img, p.c, p.h, p.w, p.kh, p.kw, oy*p.stride-p.pad, ox*p.stride-p.pad)
		}
	}
}

// unrollAt writes the patch row of the window whose top-left corner is
// (y0, x0), for c channel planes of h×w.
func unrollAt(row, img []float32, c, h, w, kh, kw, y0, x0 int) {
	lo, hi := span(x0, kw, w)
	kyLo, kyHi := span(y0, kh, h)
	if lo > 0 || hi < kw || kyLo > 0 || kyHi < kh {
		clear(row) // a border window: the copies below skip its padding
	}
	for ch := 0; ch < c; ch++ {
		r := (ch*kh + kyLo) * kw
		s := (ch*h+y0+kyLo)*w + x0
		for ky := kyLo; ky < kyHi; ky, r, s = ky+1, r+kw, s+w {
			for kx := lo; kx < hi; kx++ {
				row[r+kx] = img[s+kx]
			}
		}
	}
}

// scatter adds batch image n's patch rows of cols back into img. Each pixel
// sums its contributions in ascending output-position order.
func (p *patchWalk) scatter(n int) {
	img := p.img[n*p.c*p.h*p.w:][:p.c*p.h*p.w]
	for oy := 0; oy < p.outH; oy++ {
		for ox := 0; ox < p.outW; ox++ {
			row := p.cols[((n*p.outH+oy)*p.outW+ox)*p.rowLen:][:p.rowLen]
			scatterAt(row, img, p.c, p.h, p.w, p.kh, p.kw, oy*p.stride-p.pad, ox*p.stride-p.pad)
		}
	}
}

// scatterAt adds the patch row of the window whose top-left corner is
// (y0, x0) into its in-image pixels.
func scatterAt(row, img []float32, c, h, w, kh, kw, y0, x0 int) {
	lo, hi := span(x0, kw, w)
	kyLo, kyHi := span(y0, kh, h)
	for ch := 0; ch < c; ch++ {
		r := (ch*kh + kyLo) * kw
		s := (ch*h+y0+kyLo)*w + x0
		for ky := kyLo; ky < kyHi; ky, r, s = ky+1, r+kw, s+w {
			for kx := lo; kx < hi; kx++ {
				img[s+kx] += row[r+kx]
			}
		}
	}
}

// Im2Col unrolls input (batch, ch, h, w) into columns of kh×kw patches with
// the given stride and zero padding, producing a
// (batch*outH*outW, ch*kh*kw) matrix suitable for convolution-as-matmul.
// The result is freshly allocated; hot paths use Im2ColWS.
func Im2Col(in *Tensor, kh, kw, stride, pad int) *Tensor {
	return Im2ColWS(nil, in, kh, kw, stride, pad)
}

// Im2ColWS is Im2Col with the column matrix drawn from ws (allocation-free
// at steady state). Every element is written, so a dirty arena buffer is
// fine. A nil ws falls back to a fresh allocation.
func Im2ColWS(ws *Workspace, in *Tensor, kh, kw, stride, pad int) *Tensor {
	b, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	cols := ws.Get(b*outH*outW, c*kh*kw)
	p := patchWalk{cols.Data, in.Data, c, h, w, kh, kw, stride, pad, outH, outW, c * kh * kw}
	for n := 0; n < b; n++ {
		p.unroll(n)
	}
	return cols
}

// Col2Im is the adjoint of Im2Col: it scatters column gradients back into an
// input-shaped tensor (batch, ch, h, w), accumulating overlaps. The result
// is freshly allocated; hot paths use Col2ImWS.
func Col2Im(cols *Tensor, b, c, h, w, kh, kw, stride, pad int) *Tensor {
	return Col2ImWS(nil, cols, b, c, h, w, kh, kw, stride, pad)
}

// Col2ImWS is Col2Im with the output drawn from ws (zeroed before the
// scatter, which accumulates). A nil ws falls back to a fresh allocation.
func Col2ImWS(ws *Workspace, cols *Tensor, b, c, h, w, kh, kw, stride, pad int) *Tensor {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	out := ws.GetZeroed(b, c, h, w)
	p := patchWalk{cols.Data, out.Data, c, h, w, kh, kw, stride, pad, outH, outW, c * kh * kw}
	for n := 0; n < b; n++ {
		p.scatter(n)
	}
	return out
}
