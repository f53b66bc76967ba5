package tensor

import (
	"math"
	"testing"
)

// quantRef computes the float reference y = x·Wᵀ + bias for error-bound
// checks, plus the worst-case quantization error bound per element:
// |y_q - y| ≤ Σ_p (sa/2·|w| + sw/2·|x| + sa·sw/4), the first-order bound of
// two symmetric round-half-away quantizers.
func quantRef(x, w []float32, m, k, n int, bias []float32, aScales, wScales []float32) (ref, bound []float32) {
	ref = make([]float32, m*n)
	bound = make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc, b float64
			sa, sw := float64(aScales[i]), float64(wScales[j])
			for p := 0; p < k; p++ {
				xv, wv := float64(x[i*k+p]), float64(w[j*k+p])
				acc += float64(xv * wv)
				b += float64(sa/2*math.Abs(wv)) + float64(sw/2*math.Abs(xv)) + float64(sa*sw/4)
			}
			if bias != nil {
				acc += float64(bias[j])
			}
			ref[i*n+j] = float32(acc)
			// Headroom for the float32 rounding of the dequant multiplies.
			bound[i*n+j] = float32(b*1.01) + 1e-5
		}
	}
	return ref, bound
}

func runQuantMatMul(t *testing.T, m, k, n int, withBias bool) {
	t.Helper()
	r := newTestRand(int64(m*1000 + k*10 + n))
	x := randTensor(r, m, k)
	w := randTensor(r, n, k)
	var bias []float32
	if withBias {
		bias = randTensor(r, n).Data
	}

	q := PackQuantMat(w.Data, n, k)
	qa := make([]int16, m*q.PackedK())
	aScales := make([]float32, m)
	QuantizeRowsI8(qa, aScales, x.Data, m, k)
	dst := make([]float32, m*n)
	q.MatMulTransB(dst, qa, aScales, m, bias)

	ref, bound := quantRef(x.Data, w.Data, m, k, n, bias, aScales, q.Scales)
	for i := range ref {
		if err := float64(dst[i] - ref[i]); math.Abs(err) > float64(bound[i]) {
			t.Fatalf("m=%d k=%d n=%d: dst[%d]=%g ref=%g err=%g > bound %g",
				m, k, n, i, dst[i], ref[i], err, bound[i])
		}
	}
}

// TestQuantMatMulMatchesFloat checks the quantized product against the f32
// reference within the analytic quantization error bound, across shapes
// that exercise odd k (pair padding), partial final panels, and m=1.
func TestQuantMatMulMatchesFloat(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 7, 3},
		{4, 16, 16},
		{3, 33, 17},
		{8, 64, 40},
		{2, 100, 130},
	}
	for _, s := range shapes {
		runQuantMatMul(t, s.m, s.k, s.n, false)
		runQuantMatMul(t, s.m, s.k, s.n, true)
	}
}

// TestInt8PanelKernelsAgree pins exact equality between the AVX2 VPMADDWD
// kernel and the portable int32 kernel on random panels — the determinism
// contract for quantized inference.
func TestInt8PanelKernelsAgree(t *testing.T) {
	if !useWideKernel {
		t.Skip("no AVX2 kernel on this CPU")
	}
	r := newTestRand(42)
	for trial := 0; trial < 50; trial++ {
		kp := 1 + r.intn(64)
		a := make([]int16, 2*kp)
		pb := make([]int16, 2*qmNR*kp)
		for i := range a {
			a[i] = int16(r.intn(255) - 127)
		}
		for i := range pb {
			pb[i] = int16(r.intn(255) - 127)
		}
		var want, got [qmNR]int32
		mmPanelI8x16Go(&want, a, pb, kp)
		mmPanelI8x16(&got[0], &a[0], &pb[0], kp)
		if want != got {
			t.Fatalf("trial %d kp=%d: asm %v != portable %v", trial, kp, got, want)
		}
	}
}

// TestQuantMatZeroAndHostileRows: all-zero rows keep scale 1 (dequant
// no-op), non-finite weights quantize to code 0 instead of poisoning the
// panel, and zero-length K is tolerated.
func TestQuantMatZeroAndHostileRows(t *testing.T) {
	w := []float32{
		0, 0, 0, 0, // all-zero row
		float32(math.Inf(1)), float32(math.NaN()), 2, -4,
	}
	q := PackQuantMat(w, 2, 4)
	if q.Scales[0] != 1 {
		t.Fatalf("zero row scale %g, want 1", q.Scales[0])
	}
	// Row 1's scale comes from the finite values only (maxAbs=4).
	if q.Scales[1] != 4.0/127 {
		t.Fatalf("hostile row scale %g, want %g", q.Scales[1], 4.0/127)
	}
	x := []float32{1, 1, 1, 1}
	qa := make([]int16, q.PackedK())
	aScales := make([]float32, 1)
	QuantizeRowsI8(qa, aScales, x, 1, 4)
	dst := make([]float32, 2)
	q.MatMulTransB(dst, qa, aScales, 1, nil)
	if dst[0] != 0 {
		t.Fatalf("zero-weight output %g, want 0", dst[0])
	}
	// Inf/NaN → code 0; remaining finite terms ≈ 2 - 4 = -2.
	if math.Abs(float64(dst[1])+2) > 0.1 {
		t.Fatalf("hostile-weight output %g, want ≈ -2", dst[1])
	}

	empty := PackQuantMat(nil, 0, 0)
	empty.MatMulTransB(nil, nil, nil, 0, nil)
}

// TestInt8MatmulCounter: the tensor.int8_matmul_ns counter advances across
// quantized matmuls.
func TestInt8MatmulCounter(t *testing.T) {
	before := Int8MatmulNs()
	runQuantMatMul(t, 4, 64, 32, true)
	if Int8MatmulNs() < before {
		t.Fatal("int8 matmul ns counter went backwards")
	}
}
