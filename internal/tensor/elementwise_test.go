package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// The retired scalar loops the element-wise kernels replace, kept verbatim
// (Tensor.AddScaled, Tensor.Add, Tensor.MaxAbs, Max-N's two threshold walks
// in grad.selectVariable, ReLU's forward and backward in nn) as the
// references TestElementwiseKernelsBitExact holds the kernels to.

func refAddScaled(t []float32, alpha float32, u []float32) {
	for i, v := range u {
		t[i] += float32(alpha * v)
	}
}

func refAdd(t, u []float32) {
	for i, v := range u {
		t[i] += v
	}
}

func refMaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > m {
			m = a
		}
	}
	return m
}

func refAbs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

func refCountAbsAtLeast(g []float32, thresh float32) int {
	count := 0
	for _, v := range g {
		if refAbs32(v) >= thresh {
			count++
		}
	}
	return count
}

func refGatherAbsAtLeast(g []float32, thresh float32) ([]int32, []float32) {
	var idx []int32
	var val []float32
	for i, v := range g {
		if refAbs32(v) >= thresh {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	return idx, val
}

func refKeepPositive(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7f800000) >> 63)
}

func refReLUForward(yd, x []float32) {
	for i, v := range x {
		b := math.Float32bits(v)
		yd[i] = math.Float32frombits(b & refKeepPositive(b))
	}
}

func refReLUBackward(dd, dout, y []float32) {
	for i, v := range dout {
		dd[i] = math.Float32frombits(math.Float32bits(v) & refKeepPositive(math.Float32bits(y[i])))
	}
}

// edgeBits are the values the element-wise kernels must treat as the
// scalar loops do: ±0, subnormals, the extremes, ±Inf, and quiet and
// signalling NaNs of both signs with payloads.
var edgeBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // subnormals
	0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000, // normal extremes, ±1
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffd0beef, // quiet NaNs
	0x7f800001, 0xff8abcde, 0x7fbfffff, // signalling NaNs
}

// edgeSlice returns n floats at start offset off of a fresh backing array:
// uniform in [-1, 1) with about one in four drawn from edgeBits.
func edgeSlice(r *testRand, n, off int) []float32 {
	s := make([]float32, off+n)[off:]
	for i := range s {
		if r.intn(4) == 0 {
			s[i] = math.Float32frombits(edgeBits[r.intn(len(edgeBits))])
		} else {
			s[i] = r.float32()
		}
	}
	return s
}

// leBlock returns the little-endian words of x at byte offset off of a
// fresh backing array, as a value block lies in a received frame.
func leBlock(x []float32, off int) []byte {
	b := make([]byte, off, off+4*len(x))
	for _, v := range x {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b[off:]
}

// TestElementwiseKernelsBitExact holds Axpy, Tensor.Add's acc, maxAbs,
// CountAbsAtLeast, GatherAbsAtLeast and KeepPositive to the scalar loops
// above bit for bit, NaN payloads included, over lengths 0–300 (every tail
// of every block count up to nine) at start offsets 0–7, with thresholds
// that tie elements exactly, and AxpyLE to Axpy over the same values at
// byte offsets 0–3, a frame-sized block among them. Under GOARCH=386 (make
// conformance) it checks the portable loops.
func TestElementwiseKernelsBitExact(t *testing.T) {
	r := newTestRand(49)
	alphas := []float32{-0.001, 0.75, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		math.Float32frombits(0x7fc0dead), math.Float32frombits(0x00000003)}
	for n := 0; n <= 300; n++ {
		for off := 0; off < 8; off++ {
			name := fmt.Sprintf("n=%d off=%d", n, off)
			x, d := edgeSlice(r, n, off), edgeSlice(r, n, (off+3)%8)

			alpha := alphas[(n+off)%len(alphas)]
			got, want := append([]float32(nil), d...), append([]float32(nil), d...)
			Axpy(got, alpha, x)
			refAddScaled(want, alpha, x)
			sameArith(t, fmt.Sprintf("Axpy(%v) %s", alpha, name), got, want, []float32{alpha}, x, d)
			checkAxpyLE(t, name, d, alpha, x, off%4)

			copy(got, d)
			copy(want, d)
			acc(got, x)
			refAdd(want, x)
			sameArith(t, "acc "+name, got, want, x, d)

			if g, w := maxAbs(x), refMaxAbs(x); f32bits(g) != f32bits(w) {
				t.Fatalf("maxAbs %s = %v (bits %08x), want %v (bits %08x)", name, g, f32bits(g), w, f32bits(w))
			}

			threshes := []float32{0, 0.5, float32(math.Inf(1)), math.Float32frombits(0x7fc00000), math.Float32frombits(0x00000001)}
			if n > 0 {
				threshes = append(threshes, refAbs32(x[r.intn(n)]), refAbs32(x[n-1]))
			}
			for _, th := range threshes {
				checkThreshold(t, fmt.Sprintf("%s thresh=%v", name, th), x, th)
			}

			KeepPositive(got, x, x)
			refReLUForward(want, x)
			sameBits(t, "KeepPositive forward "+name, got, want)
			KeepPositive(got, x, d)
			refReLUBackward(want, x, d)
			sameBits(t, "KeepPositive backward "+name, got, want)
		}
	}
	const frameValues = 342_279 // train_wire's dense frame
	x, d := edgeSlice(r, frameValues, 0), edgeSlice(r, frameValues, 0)
	for off := 0; off < 4; off++ {
		checkAxpyLE(t, "frame", d, alphas[off], x, off)
	}
}

// checkAxpyLE holds AxpyLE over x's words at byte offset off to Axpy over
// x, bit for bit, from the same dst d.
func checkAxpyLE(t *testing.T, name string, d []float32, alpha float32, x []float32, off int) {
	t.Helper()
	got, want := append([]float32(nil), d...), append([]float32(nil), d...)
	AxpyLE(got, alpha, leBlock(x, off))
	Axpy(want, alpha, x)
	sameBits(t, fmt.Sprintf("AxpyLE(%v) %s byte offset %d", alpha, name, off), got, want)
}

// sameArith is sameBits for an arithmetic pass whose element i reads
// ops[k][i] (ops[k][0] for a one-element op), except where two or more of
// those operands are NaNs. IEEE 754 leaves open which of two NaN operands'
// payloads the result carries, and gc picks either operand order for one
// scalar loop depending on where it inlines it: under GOARCH=386 acc's
// loop, inlined here, adds dst + x where refAdd's adds x + dst. There the
// result must be a NaN carrying one of those operands' payloads, quieted.
func sameArith(t *testing.T, name string, got, want []float32, ops ...[]float32) {
	t.Helper()
	for i := range want {
		g := f32bits(got[i])
		if g == f32bits(want[i]) {
			continue
		}
		var payloads []uint32
		for _, op := range ops {
			if v := op[min(i, len(op)-1)]; v != v {
				payloads = append(payloads, f32bits(v)|0x00400000)
			}
		}
		if len(payloads) >= 2 && slices.Contains(payloads, g) {
			continue
		}
		t.Fatalf("%s: element %d is %v (bits %08x), want %v (bits %08x)",
			name, i, got[i], g, want[i], f32bits(want[i]))
	}
}

// checkThreshold compares CountAbsAtLeast and GatherAbsAtLeast with the
// scalar walks at one threshold, and checks that a gather given one slot
// too few panics without writing past its slices.
func checkThreshold(t *testing.T, name string, x []float32, th float32) {
	t.Helper()
	wantIdx, wantVal := refGatherAbsAtLeast(x, th)
	count := CountAbsAtLeast(x, th)
	if want := refCountAbsAtLeast(x, th); count != want {
		t.Fatalf("CountAbsAtLeast %s = %d, want %d", name, count, want)
	}
	idx, val := make([]int32, count), make([]float32, count)
	if k := GatherAbsAtLeast(idx, val, x, th); k != count {
		t.Fatalf("GatherAbsAtLeast %s wrote %d, want %d", name, k, count)
	}
	for i := range wantIdx {
		if idx[i] != wantIdx[i] {
			t.Fatalf("GatherAbsAtLeast %s: index %d is %d, want %d", name, i, idx[i], wantIdx[i])
		}
	}
	sameBits(t, "GatherAbsAtLeast "+name, val, wantVal)
	if count == 0 {
		return
	}
	const sentinel = -7
	idx, val = make([]int32, count-1, count+40), make([]float32, count-1, count+40)
	for i := range idx[:cap(idx)] {
		idx[:cap(idx)][i], val[:cap(val)][i] = sentinel, sentinel
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("GatherAbsAtLeast %s with room for %d of %d did not panic", name, count-1, count)
			}
		}()
		GatherAbsAtLeast(idx, val, x, th)
	}()
	for i := count - 1; i < cap(idx); i++ {
		if idx[:cap(idx)][i] != sentinel || val[:cap(val)][i] != sentinel {
			t.Fatalf("GatherAbsAtLeast %s with room for %d wrote slot %d", name, count-1, i)
		}
	}
}
