package grad

import "math"

// This file is the precision half of the paper's data quality adjustment
// (§3.3): where Max-N decides *which* gradient values cross a constrained
// link, quantization decides *how many bits* each value costs. A selection
// can be re-encoded at three wire precisions:
//
//	PrecF32 — 4 bytes/value, lossless (the pre-quantization format)
//	PrecF16 — 2 bytes/value, IEEE 754 binary16, ~3 decimal digits
//	PrecI8  — 1 byte/value + a per-variable (scale, zero-point) pair
//
// Quantization is applied at selection time, not encode time: the
// quantized payload (Q8/F16) and its dequantized float32 image are stored
// side by side on the Selection, so the simulator's math sees exactly the
// values a real receiver would reconstruct, byte accounting sees the
// reduced wire size, and the encoder emits the payload verbatim (keeping
// the canonical-encoding invariant the fuzz harness pins).

// Precision identifies a gradient wire precision.
type Precision uint8

// Wire precisions. The zero value is full float32 — every pre-quantization
// configuration and frame keeps its exact behavior.
const (
	PrecF32 Precision = iota // 4 bytes/value, lossless
	PrecF16                  // 2 bytes/value, IEEE 754 binary16
	PrecI8                   // 1 byte/value, per-variable scale/zero-point
)

// numPrecisions bounds the enum for wire validation.
const numPrecisions = 3

// String returns the precision's name.
func (p Precision) String() string {
	switch p {
	case PrecF32:
		return "f32"
	case PrecF16:
		return "f16"
	case PrecI8:
		return "int8"
	}
	return "Precision(?)"
}

// Valid reports whether p is a defined precision.
func (p Precision) Valid() bool { return p < numPrecisions }

// ElemBytes returns the wire cost of one value at this precision. Sparse
// entries additionally carry a 4-byte index; int8 variables additionally
// carry a 5-byte (scale, zero-point) pair.
func (p Precision) ElemBytes() int {
	switch p {
	case PrecF16:
		return 2
	case PrecI8:
		return 1
	}
	return 4
}

// PrecMask is a bitmask of the precisions a worker accepts on its inbound
// links, advertised in HELLO/WELCOME during membership negotiation. f32 is
// always accepted (every decoder handles it); the mask gates only the
// reduced precisions. The zero value means "reduced precisions unknown" and
// is treated as MaskAll for members that never ran the handshake (static
// founders share one binary and one wire version by construction).
type PrecMask uint8

// Capability bits.
const (
	MaskF16 PrecMask = 1 << 0
	MaskI8  PrecMask = 1 << 1
	// MaskAll accepts every reduced precision (the default policy).
	MaskAll = MaskF16 | MaskI8
)

// Allows reports whether the mask admits sending at precision p.
func (m PrecMask) Allows(p Precision) bool {
	switch p {
	case PrecF16:
		return m&MaskF16 != 0
	case PrecI8:
		return m&MaskI8 != 0
	}
	return true // f32 is always legal
}

// Clamp returns p if the mask allows it, stepping up toward f32 otherwise
// (int8 falls back to f16 when only f16 is accepted).
func (m PrecMask) Clamp(p Precision) Precision {
	if m.Allows(p) {
		return p
	}
	if p == PrecI8 && m.Allows(PrecF16) {
		return PrecF16
	}
	return PrecF32
}

// BudgetInflation returns the factor by which a byte budget stretches when
// the selection is quantized to p before transmission: the sparse-entry
// cost ratio (4+4)/(4+elem). It is conservative for selections that take
// the dense encoding, whose ratio is the full 4/elem.
func BudgetInflation(p Precision) float64 {
	return float64(4+4) / float64(4+p.ElemBytes())
}

// --- IEEE 754 binary16 conversion ---

// F16Bits converts a float32 to IEEE 754 binary16 with round-to-nearest-
// even, preserving NaN (as a quiet NaN), infinities, and signed zeros;
// values above the f16 range overflow to infinity and values below the
// smallest subnormal underflow to (signed) zero.
func F16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	mant := b & 0x7fffff
	switch {
	case exp == 0xff: // Inf or NaN
		if mant != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	case exp > 142: // 2^16 and above: overflow to Inf (142 = 127+15)
		return sign | 0x7c00
	case exp >= 113: // normal range (113 = 127-14)
		// Round the 23-bit mantissa to 10 bits, ties to even.
		e := uint32(exp-112) << 10
		m := mant >> 13
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
			m++ // may carry into the exponent; the +1 then lands in e
		}
		return sign | uint16(e+m)
	case exp >= 103: // subnormal range: 2^-24 <= |f| < 2^-14
		// Shift the implicit leading 1 into the mantissa, then round.
		m := (mant | 0x800000) >> uint32(126-exp)
		rem := (mant | 0x800000) & ((1 << uint32(126-exp)) - 1)
		half := uint32(1) << uint32(125-exp)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		return sign | uint16(m)
	default: // underflow to signed zero
		return sign
	}
}

// F16FromBits converts an IEEE 754 binary16 to float32 exactly (every
// binary16 value is representable in float32).
func F16FromBits(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf or NaN
		if mant != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | mant<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0: // zero or subnormal
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Normalize: shift until the leading 1 reaches bit 10.
		e := uint32(113)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | (e << 23) | (mant&0x3ff)<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	}
}

// --- int8 affine quantization ---

// QuantizeI8 maps v to an int8 code under (scale, zero): round-half-away
// from zero of v/scale + zero, clamped to [-127, 127] (-128 stays unused so
// the range is symmetric). Non-finite v and non-positive or non-finite
// scales quantize to the zero code — a gradient that is already NaN carries
// no information worth a byte.
func QuantizeI8(v, scale float32, zero int8) int8 {
	if !(scale > 0) || math.IsInf(float64(scale), 0) ||
		math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return zero
	}
	r := float64(v)/float64(scale) + float64(zero)
	// Clamp in the float domain: int conversion of a huge quotient is
	// otherwise implementation-defined.
	if r >= 127 {
		return 127
	}
	if r <= -127 {
		return -127
	}
	if r >= 0 {
		return int8(r + 0.5)
	}
	return int8(r - 0.5)
}

// DequantizeI8 inverts QuantizeI8: scale·(q - zero). With a corrupt
// (non-finite) scale the result is non-finite; receivers treat gradient
// values the way they treat any hostile float payload.
func DequantizeI8(q int8, scale float32, zero int8) float32 {
	return scale * float32(int32(q)-int32(zero))
}

// i8Scale derives the symmetric per-variable scale maxAbs/127 over the
// finite values of g. An all-zero (or all-non-finite) gradient yields scale
// 0, under which every value quantizes to the zero code.
func i8Scale(g []float32) float32 {
	var maxAbs float32
	for _, v := range g {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		if a := abs32(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs / 127
}

// Quantize re-encodes the selection's values at precision p, storing the
// quantized payload (Q8 or F16) and overwriting the float32 values with
// their dequantized image — the exact values a receiver reconstructs, so
// sender-side math, the simulator, and the wire all agree. Because it
// writes the values in place, it owns a borrowed Dense first: the sender's
// Param.G is never touched. Gradients are zero-centered, so the int8
// zero-point is 0 (the wire format carries an explicit zero-point for
// asymmetric payloads). Quantizing to PrecF32, or re-quantizing an
// already-quantized selection, is a no-op.
func (s *Selection) Quantize(p Precision) {
	if p == PrecF32 || s.Prec != PrecF32 {
		return
	}
	s.Own()
	vals := s.Dense
	if vals == nil {
		vals = s.Val
	}
	switch p {
	case PrecF16:
		s.F16 = make([]uint16, len(vals))
		for i, v := range vals {
			s.F16[i] = F16Bits(v)
			vals[i] = F16FromBits(s.F16[i])
		}
	case PrecI8:
		s.Scale, s.Zero = i8Scale(vals), 0
		s.Q8 = make([]int8, len(vals))
		for i, v := range vals {
			s.Q8[i] = QuantizeI8(v, s.Scale, s.Zero)
			vals[i] = DequantizeI8(s.Q8[i], s.Scale, s.Zero)
		}
	}
	s.Prec = p
}

// QuantizeAll quantizes every selection to p and returns the wire bytes
// saved relative to the f32 encoding of the same selections.
func QuantizeAll(sels []*Selection, p Precision) int {
	if p == PrecF32 {
		return 0
	}
	saved := 0
	for _, s := range sels {
		before := s.Bytes()
		s.Quantize(p)
		saved += before - s.Bytes()
	}
	return saved
}

// DenseBytes returns the wire size of a full dense f32 exchange of the
// given parameter set — the reference against which the auto-precision
// policy and the quant_bytes_saved counter measure reduction.
func DenseBytes(totals []int) int {
	n := 0
	for _, t := range totals {
		n += headerBytes + 4*t
	}
	return n
}
