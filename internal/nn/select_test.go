package nn

import (
	"fmt"
	"math"
	"testing"

	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// refReLU and refMaxPool2 are the retired branching layers, verbatim: ReLU
// with a []bool mask, MaxPool2 with a strict > per candidate and absolute
// int indices. The computed selects must reproduce them bit for bit.
type refReLU struct {
	arena
	name string
	mask []bool
}

// Forward implements Layer.
func (r *refReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := r.nextY(x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			r.mask[i] = true
		} else {
			y.Data[i] = 0
			r.mask[i] = false
		}
	}
	return y
}

// Backward implements Layer.
func (r *refReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := r.nextDx(false, dout.Shape...)
	for i, v := range dout.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

type refMaxPool2 struct {
	arena
	name   string
	argmax []int
	insh   []int
}

// Forward implements Layer.
func (m *refMaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(shapeErr(m.name, "rank-4", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	m.insh = append(m.insh[:0], x.Shape...)
	y := m.nextY(b, c, oh, ow)
	if cap(m.argmax) < y.Len() {
		m.argmax = make([]int, y.Len())
	}
	m.argmax = m.argmax[:y.Len()]
	for n := 0; n < b; n++ {
		for ch := 0; ch < c; ch++ {
			in := x.Data[(n*c+ch)*h*w:][:h*w]
			outBase := (n*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy, ix := oy*2, ox*2
					best, bi := in[iy*w+ix], iy*w+ix
					for _, off := range [3]int{iy*w + ix + 1, (iy+1)*w + ix, (iy+1)*w + ix + 1} {
						if in[off] > best {
							best, bi = in[off], off
						}
					}
					y.Data[outBase+oy*ow+ox] = best
					m.argmax[outBase+oy*ow+ox] = (n*c+ch)*h*w + bi
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (m *refMaxPool2) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := m.nextDx(true, m.insh...) // zeroed: the scatter accumulates
	for i, v := range dout.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx
}

// specials are the values a select can get wrong: both zeros, both
// infinities, NaNs of both signs (quiet and signalling payloads), the
// subnormal extremes, the normal extremes, and small integers that tie.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff800123),
	math.Float32frombits(0x00000001), math.Float32frombits(0x80000001),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00800000), math.MaxFloat32, -math.MaxFloat32,
	1, -1, 2, -2, 0.5,
}

// selectInput fills a tensor half with specials and half with normals.
func selectInput(rng *stats.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		if rng.Intn(2) == 0 {
			x.Data[i] = specials[rng.Intn(len(specials))]
		} else {
			x.Data[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// windowCases are single 2×2 windows in (top-left, top-right, bottom-left,
// bottom-right) order: NaN first and later, signed-zero ties in both
// orders, all-equal windows, and maxima in every position.
func windowCases() [][4]float32 {
	nan, nnan := math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000)
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	sub := math.Float32frombits(1)
	return [][4]float32{
		{nan, 1, 2, 3}, {nnan, -1, inf, 0}, {1, nan, 2, 0}, {-1, -2, nnan, -3},
		{negZero, 0, negZero, 0}, {0, negZero, 0, negZero}, {negZero, negZero, negZero, negZero},
		{5, 5, 5, 5}, {-inf, -inf, -inf, -inf}, {-inf, nan, -inf, nnan},
		{sub, -sub, 0, negZero}, {-sub, negZero, -sub, 0}, {-1, -2, -3, negZero},
		{inf, inf, 1, 2}, {1, 2, 2, 1}, {1, 1, 3, 3}, {0, 0, 0, 1}, {4, 3, 2, 1},
	}
}

// TestSelectsMatchBranchingReferenceBitExact holds ReLU and MaxPool2 to the
// retired branching layers: forward values, backward dx (fed specials too,
// so −0 and NaN gradients are covered) and, for MaxPool2, the window element
// each output chose.
func TestSelectsMatchBranchingReferenceBitExact(t *testing.T) {
	rng := stats.NewRNG(28)
	shapes := [][]int{{1, 1, 1, 1}, {1, 1, 2, 2}, {2, 3, 5, 7}, {3, 2, 8, 6}, {1, 4, 9, 11}}
	var crafted *tensor.Tensor
	{
		cases := windowCases()
		crafted = tensor.New(1, 1, 2, 2*len(cases))
		w := 2 * len(cases)
		for i, c := range cases {
			crafted.Data[2*i], crafted.Data[2*i+1] = c[0], c[1]
			crafted.Data[w+2*i], crafted.Data[w+2*i+1] = c[2], c[3]
		}
	}
	for trial := 0; trial < 4; trial++ {
		for si, shape := range append(shapes, crafted.Shape) {
			x := selectInput(rng, shape...)
			if si == len(shapes) {
				x = crafted
			}
			name := fmt.Sprintf("trial %d shape %v", trial, shape)

			r, rr := NewReLU("relu"), &refReLU{name: "relu"}
			sameBits(t, name+" ReLU forward", r.Forward(x).Data, rr.Forward(x).Data)
			dout := selectInput(rng, shape...)
			sameBits(t, name+" ReLU backward", r.Backward(dout).Data, rr.Backward(dout).Data)

			m, rm := NewMaxPool2("pool"), &refMaxPool2{name: "pool"}
			y := m.Forward(x)
			sameBits(t, name+" MaxPool2 forward", y.Data, rm.Forward(x).Data)
			h, w := shape[2], shape[3]
			oh, ow := h/2, w/2
			for i, o := range m.argmax {
				plane, oy, ox := i/(oh*ow), i/ow%oh, i%ow
				chosen := plane*h*w + (2*oy+int(o>>1))*w + 2*ox + int(o&1)
				if chosen != rm.argmax[i] {
					t.Fatalf("%s: MaxPool2 output %d chose input %d, reference %d", name, i, chosen, rm.argmax[i])
				}
			}
			pdout := selectInput(rng, y.Shape...)
			sameBits(t, name+" MaxPool2 backward", m.Backward(pdout).Data, rm.Backward(pdout).Data)
		}
	}
}

func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (bits %08x), want %v (bits %08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
