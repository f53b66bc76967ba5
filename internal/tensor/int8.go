package tensor

import (
	"math"
	"sync/atomic"
	"time"
)

// Int8 inference engine: a quantized sibling of the packed f32 matmul in
// kernels.go, built for the serve path where weights are frozen between
// Restore calls and can be packed once.
//
// Quantization is symmetric per output channel: row j of a weight matrix W
// (N×K, the MatMulTransB orientation used by Dense and Conv2D forward) is
// stored as int8 codes with scale Scales[j] = maxAbs(W[j,:])/127, and an
// activation row i is quantized on the fly with its own scale, so
//
//	y[i][j] ≈ aScale[i] · Scales[j] · Σ_p qa[i][p]·qw[j][p] + bias[j]
//
// with one int32 dot product per output element. Codes are widened to int16
// at pack time: the AVX2 kernel is built on VPMADDWD (16 int16×int16
// multiplies + pairwise adds per instruction), which doubles MAC throughput
// over the f32 path and halves memory traffic, and int8-range operands can
// never hit VPMADDWD's lone saturation case ((-32768)² pairs).
//
// Determinism contract: both kernels accumulate in int32, which is exact —
// asm and portable paths agree bit-for-bit (pinned by
// TestInt8PanelKernelsAgree). The only floats are the two scale multiplies
// per output element, applied in a fixed order.

// qmNR is the int8 panel width: 16 output channels per panel, two YMM int32
// accumulators in the AVX2 kernel.
const qmNR = 16

// QuantMat is an int8-quantized, panel-packed weight matrix.
//
// Layout: K is padded to an even number of "k-pairs" (kp = ceil(K/2)) and N
// to 16-column panels. Panel pj stores, per k-pair pp, the 16 interleaved
// code pairs [w[j][2pp], w[j][2pp+1]] for j = 16pj..16pj+15 — 32 int16 = 64
// bytes, exactly the two VPMADDWD operands of one kernel step. Padded lanes
// are zero and contribute nothing to the integer accumulators.
type QuantMat struct {
	N, K   int       // logical shape: N output channels, K inputs
	kp     int       // padded k-pairs, ceil(K/2)
	panels []int16   // packed int8-range codes, ceil(N/16)·kp·32 entries
	Scales []float32 // per-output-channel dequantization scales, len N
}

// quantCodeI8 quantizes v to a symmetric int8-range code (round half away
// from zero, clamped to ±127), mirroring grad.QuantizeI8 semantics: a
// non-finite value or corrupt scale takes the zero code.
func quantCodeI8(v, scale float32) int16 {
	if !(scale > 0) || math.IsInf(float64(scale), 0) ||
		math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return 0
	}
	r := v / scale
	if r >= 127 {
		return 127
	}
	if r <= -127 {
		return -127
	}
	if r >= 0 {
		return int16(r + 0.5)
	}
	return int16(r - 0.5)
}

// rowScaleI8 returns the symmetric quantization scale for a row: maxAbs/127,
// or 1 for an all-zero (or non-finite) row so dequantization stays a no-op.
func rowScaleI8(row []float32) float32 {
	maxAbs := float32(0)
	for _, v := range row {
		// Branchless |v|: the sign branch mispredicts ~50% on real
		// activations, which dominates this loop.
		a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
		if a > maxAbs && a-a == 0 { // finite values only
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / 127
}

// PackQuantMat quantizes and packs w (N×K row-major, MatMulTransB
// orientation) into the int8 panel layout. Pack once per weight snapshot;
// the result is immutable and safe for concurrent MatMulTransB calls.
func PackQuantMat(w []float32, n, k int) *QuantMat {
	if len(w) < n*k {
		panic("tensor: PackQuantMat: short weight slice")
	}
	kp := (k + 1) / 2
	nPanels := (n + qmNR - 1) / qmNR
	q := &QuantMat{
		N:      n,
		K:      k,
		kp:     kp,
		panels: make([]int16, nPanels*kp*2*qmNR),
		Scales: make([]float32, n),
	}
	for j := 0; j < n; j++ {
		q.Scales[j] = rowScaleI8(w[j*k : j*k+k])
	}
	for pj := 0; pj < nPanels; pj++ {
		base := pj * kp * 2 * qmNR
		for pp := 0; pp < kp; pp++ {
			out := q.panels[base+pp*2*qmNR:]
			for l := 0; l < qmNR; l++ {
				j := pj*qmNR + l
				if j >= n {
					continue // padded lanes stay zero
				}
				row, s := w[j*k:j*k+k], q.Scales[j]
				out[2*l] = quantCodeI8(row[2*pp], s)
				if 2*pp+1 < k {
					out[2*l+1] = quantCodeI8(row[2*pp+1], s)
				}
			}
		}
	}
	return q
}

// PackedK is the activation stride MatMulTransB expects: K rounded up to an
// even number of elements (codes per row in qa).
func (q *QuantMat) PackedK() int { return 2 * q.kp }

// QuantizeRowsI8 quantizes m activation rows of x (m×k row-major) into
// int8-range codes stored as int16, one symmetric scale per row. dst must
// hold m·(k rounded up to even) entries; the odd-k pad code is zero.
func QuantizeRowsI8(dst []int16, scales []float32, x []float32, m, k int) {
	stride := 2 * ((k + 1) / 2)
	if len(dst) < m*stride || len(scales) < m || len(x) < m*k {
		panic("tensor: QuantizeRowsI8: short buffer")
	}
	for i := 0; i < m; i++ {
		row := x[i*k : i*k+k]
		s := rowScaleI8(row)
		scales[i] = s
		out := dst[i*stride : i*stride+stride]
		if !(s > 0) {
			// Degenerate scale (all-zero row underflowed): every code is 0.
			for p := range row {
				out[p] = 0
			}
		} else {
			// Hot path: one multiply per element instead of a divide, with
			// the scale checks hoisted out of the loop. v-v != 0 catches NaN
			// and ±Inf (both quantize to the zero code, mirroring
			// grad.QuantizeI8); the float-domain clamp bounds the rest, so
			// the int16 conversion never overflows. Rounding half away from
			// zero adds ±0.5 built branchlessly from r's sign bit — a
			// sign-dependent branch mispredicts ~50% on real activations.
			inv := 1 / s
			q := out[:len(row)]
			for p, v := range row {
				if v-v != 0 {
					q[p] = 0
					continue
				}
				r := v * inv
				if r >= 127 {
					q[p] = 127
					continue
				}
				if r <= -127 {
					q[p] = -127
					continue
				}
				half := math.Float32frombits(math.Float32bits(r)&(1<<31) | 0x3f000000)
				q[p] = int16(r + half)
			}
		}
		if stride > k {
			out[k] = 0
		}
	}
}

// mmPanelI8x16Go is the portable panel kernel: dst[l] accumulates the int32
// dot product of the activation row with packed column 16·panel+l across kp
// k-pairs. Integer adds are associative, so this is exactly the asm kernel's
// arithmetic.
func mmPanelI8x16Go(dst *[qmNR]int32, a []int16, pb []int16, kp int) {
	for l := range dst {
		dst[l] = 0
	}
	for pp := 0; pp < kp; pp++ {
		alo, ahi := int32(a[2*pp]), int32(a[2*pp+1])
		row := pb[pp*2*qmNR : pp*2*qmNR+2*qmNR]
		for l := 0; l < qmNR; l++ {
			dst[l] += alo*int32(row[2*l]) + ahi*int32(row[2*l+1])
		}
	}
}

// mulRow computes one dequantized output row: out[j] = sa·Scales[j]·(int32
// dot of aRow with packed column j) + bias[j].
func (q *QuantMat) mulRow(out []float32, aRow []int16, sa float32, bias []float32) {
	var acc [qmNR]int32
	nPanels := (q.N + qmNR - 1) / qmNR
	for pj := 0; pj < nPanels; pj++ {
		pb := q.panels[pj*q.kp*2*qmNR:]
		if useWideKernel && q.kp > 0 {
			mmPanelI8x16(&acc[0], &aRow[0], &pb[0], q.kp)
		} else {
			mmPanelI8x16Go(&acc, aRow, pb, q.kp)
		}
		jBase := pj * qmNR
		w := q.N - jBase
		if w > qmNR {
			w = qmNR
		}
		for l := 0; l < w; l++ {
			y := sa * q.Scales[jBase+l] * float32(acc[l])
			if bias != nil {
				y += bias[jBase+l]
			}
			out[jBase+l] = y
		}
	}
}

// MatMulTransB computes dst = dequant(qa · Wᵀ) + bias for m quantized
// activation rows: dst[i·N+j] = aScales[i]·Scales[j]·(int32 dot) + bias[j].
// qa is m rows of PackedK codes from QuantizeRowsI8; bias (len N) may be
// nil. dst must hold m·N floats. Results are bit-identical between the asm
// and portable kernels.
func (q *QuantMat) MatMulTransB(dst []float32, qa []int16, aScales []float32, m int, bias []float32) {
	stride := 2 * q.kp
	if len(dst) < m*q.N || len(qa) < m*stride || len(aScales) < m {
		panic("tensor: QuantMat.MatMulTransB: short buffer")
	}
	if bias != nil && len(bias) < q.N {
		panic("tensor: QuantMat.MatMulTransB: short bias")
	}
	start := time.Now()
	for i := 0; i < m; i++ {
		q.mulRow(dst[i*q.N:i*q.N+q.N], qa[i*stride:i*stride+stride], aScales[i], bias)
	}
	i8MatmulNs.Add(time.Since(start).Nanoseconds())
}

// i8MatmulNs accumulates nanoseconds spent inside QuantMat.MatMulTransB,
// exposed as tensor.int8_matmul_ns (METRICS.md) — the serve path's direct
// view of quantized inference cost.
var i8MatmulNs atomic.Int64

// Int8MatmulNs reports total nanoseconds spent in quantized matmuls.
func Int8MatmulNs() int64 { return i8MatmulNs.Load() }

// AttachQuantMetrics exposes the quantized-kernel counters on reg, an
// *obs.Registry, under the names documented in METRICS.md. reg is taken
// through the one method used, so the kernels do not depend on obs. Safe
// on a nil *obs.Registry.
func AttachQuantMetrics(reg interface{ AttachFunc(string, func() int64) }) {
	reg.AttachFunc("tensor.int8_matmul_ns", i8MatmulNs.Load)
}
