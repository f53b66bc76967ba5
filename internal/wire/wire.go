// Package wire defines the messages DLion workers exchange — gradients,
// loss reports, direct-knowledge-transfer requests and weights, RCP
// (relative compute power) reports, and the membership handshake — and a
// compact binary encoding used by the TCP transport and for wire-size
// accounting. The original prototype serialized these through Redis; the
// format here is self-contained (stdlib encoding/binary only).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"dlion/internal/bufpool"
	"dlion/internal/grad"
	"dlion/internal/tensor"
)

// MsgType discriminates message payloads.
type MsgType uint8

// Message types. Gradient and Weights ride the data queue; the rest ride
// the control queue, mirroring the prototype's two Redis queues (§4.2).
const (
	TypeGradient   MsgType = iota + 1 // partial gradients, per variable
	TypeLossReport                    // average of last l losses (§3.4)
	TypeDKTRequest                    // "send me your weights"
	TypeWeights                       // best worker's model weights
	TypeRCPReport                     // relative compute power share (§3.2)
	_                                 // 6 is unassigned: it decodes as ErrCorrupt
	TypeHello                         // membership: join request / announce
	TypeWelcome                       // membership: admission (roster + weights)
	TypeLeave                         // membership: graceful-leave tombstone
)

var typeNames = map[MsgType]string{
	TypeGradient: "gradient", TypeLossReport: "loss", TypeDKTRequest: "dkt-req",
	TypeWeights: "weights", TypeRCPReport: "rcp",
	TypeHello: "hello", TypeWelcome: "welcome", TypeLeave: "leave",
}

// HelloNeedSync, when set in a Hello's Flags, asks the receiver to sponsor
// the sender: reply with a Welcome carrying an epoch-stamped roster snapshot
// and a full weight snapshot. A Hello without it is an announce — "add me to
// your roster, I am already synced" — sent to the remaining members after
// admission.
const HelloNeedSync uint8 = 1 << 0

// Selection flag-byte layout (see WIRE.md §4). Bit 0 is the dense/sparse
// discriminator the original format defined; bits 1-2 carry the payload
// precision (grad.PrecF32/PrecF16/PrecI8), so the legacy flag values 0
// (sparse f32) and 1 (dense f32) keep their exact meaning.
const (
	selDenseBit  = 0x01
	selPrecShift = 1
	selFlagMax   = selDenseBit | uint8(grad.PrecI8)<<selPrecShift
)

// String returns the type's name.
func (t MsgType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is one unit of worker-to-worker communication.
type Message struct {
	Type MsgType
	From int32
	To   int32
	Iter int64

	// Gradient payload
	LBS        int32 // sender's local batch size, for the db weight (Eq. 7)
	Selections []*grad.Selection

	// Weights payload (DKT)
	Weights map[string]*tensor.Tensor

	// Scalar payloads
	Loss float64 // LossReport
	RCP  float64 // RCPReport

	// Membership payloads (Hello/Welcome/Leave). Epoch stamps the sender's
	// roster version; Members is the Welcome roster snapshot (worker ids);
	// GBS carries the sponsor's current global batch size so a joiner's
	// controller starts from the federation's value; Flags holds the
	// Hello option bits (HelloNeedSync). Welcome reuses Weights for the
	// sponsor's model snapshot and Iter for its iteration count.
	Epoch   int64
	Members []int32
	GBS     int32
	Flags   uint8

	// Quant advertises the sender's accepted reduced wire precisions (a
	// grad.PrecMask) in Hello and Welcome, making precision negotiation
	// epoch-safe: a joiner learns the sponsor's capabilities with the same
	// message that carries the roster, and members learn the joiner's from
	// its Hello before any gradient frame is sent.
	Quant uint8

	// pooled marks a message whose Selection storage Decode drew from the
	// free lists; only then does Release have anything to hand back.
	pooled bool
}

// Free lists for the storage Decode fills (see Release). Encoded frames use
// bufpool.Bytes, which the transport layers share.
var (
	f32Pool bufpool.Pool[float32]
	i32Pool bufpool.Pool[int32]
)

// Release hands the Selection storage of a decoded message back for reuse
// and empties the message's Selections. The caller must be the message's
// only user and done with it: core calls Release once a peer gradient has
// been applied or dropped. It is a no-op on a nil message, on one that was
// built rather than decoded (the simulator delivers the sender's Message,
// whose Selections other links share), and on a second call; a message that
// is never released is simply garbage-collected.
func (m *Message) Release() {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false
	for _, s := range m.Selections {
		f32Pool.Put(s.Dense)
		f32Pool.Put(s.Val)
		i32Pool.Put(s.Idx)
		s.Dense, s.Val, s.Idx = nil, nil, nil
	}
	m.Selections = nil
}

// WireBytes returns the approximate encoded size of the message without
// encoding it. It is the simulator's cost model — transfer time is charged
// by it — so it keeps grad's flat per-variable header estimate; buffers are
// sized by encodedLen instead.
func (m *Message) WireBytes() int { return m.size(false) }

// encodedLen returns exactly len(Encode(m)).
func (m *Message) encodedLen() int { return m.size(true) }

func (m *Message) size(exact bool) int {
	n := 1 + 4 + 4 + 8 // type, from, to, iter
	switch m.Type {
	case TypeGradient:
		n += 4 + 4 // LBS, selection count
		if exact {
			for _, s := range m.Selections {
				n += selectionLen(s)
			}
		} else {
			n += grad.TotalBytes(m.Selections)
		}
	case TypeWeights:
		n += 4 // count
		for name, t := range m.Weights {
			n += 2 + len(name) + 4 + 4*t.Len()
		}
	case TypeLossReport, TypeRCPReport:
		n += 8
	case TypeHello:
		n += 1 + 8 + 1 // flags, epoch, quant mask
	case TypeWelcome:
		n += 8 + 4 + 1 + 4 + 4*len(m.Members) // epoch, gbs, quant, member count, ids
		n += 4                                // weight count
		for name, t := range m.Weights {
			n += 2 + len(name) + 4 + 4*t.Len()
		}
	case TypeLeave:
		n += 8 // epoch
	}
	return n
}

const maxName = 1 << 12

var (
	// ErrTruncated reports an incomplete message.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrCorrupt reports a structurally invalid message.
	ErrCorrupt = errors.New("wire: corrupt message")
)

// hostLE reports a little-endian host, where a []float32's memory already is
// its wire image and f32 value blocks move with one copy. The per-element
// loops stay as the path for every other precision and for big-endian hosts.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views vals' memory as bytes.
func f32Bytes(vals []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}

// appendF32s appends vals as little-endian IEEE-754 words.
func appendF32s(buf []byte, vals []float32) []byte {
	if hostLE {
		return append(buf, f32Bytes(vals)...)
	}
	for _, v := range vals {
		buf = le32(buf, math.Float32bits(v))
	}
	return buf
}

// Encode serializes m in little-endian binary. The caller owns the returned
// frame; handing it to a realtime.Transport passes that ownership on.
func Encode(m *Message) []byte {
	return AppendEncode(bufpool.Bytes.Get(m.encodedLen())[:0], m)
}

// AppendEncode appends m's encoding to dst and returns the extended slice.
func AppendEncode(dst []byte, m *Message) []byte {
	buf := append(dst, byte(m.Type))
	buf = le32(buf, uint32(m.From))
	buf = le32(buf, uint32(m.To))
	buf = le64(buf, uint64(m.Iter))
	switch m.Type {
	case TypeGradient:
		buf = le32(buf, uint32(m.LBS))
		buf = le32(buf, uint32(len(m.Selections)))
		for _, s := range m.Selections {
			buf = encodeSelection(buf, s)
		}
	case TypeWeights:
		buf = encodeWeights(buf, m.Weights)
	case TypeLossReport:
		buf = le64(buf, math.Float64bits(m.Loss))
	case TypeRCPReport:
		buf = le64(buf, math.Float64bits(m.RCP))
	case TypeHello:
		buf = append(buf, m.Flags)
		buf = le64(buf, uint64(m.Epoch))
		buf = append(buf, m.Quant)
	case TypeWelcome:
		buf = le64(buf, uint64(m.Epoch))
		buf = le32(buf, uint32(m.GBS))
		buf = append(buf, m.Quant)
		buf = le32(buf, uint32(len(m.Members)))
		for _, id := range m.Members {
			buf = le32(buf, uint32(id))
		}
		buf = encodeWeights(buf, m.Weights)
	case TypeLeave:
		buf = le64(buf, uint64(m.Epoch))
	}
	return buf
}

func encodeWeights(buf []byte, w map[string]*tensor.Tensor) []byte {
	buf = le32(buf, uint32(len(w)))
	// deterministic order is not required for correctness; iterate map
	for name, t := range w {
		buf = le16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = le32(buf, uint32(t.Len()))
		buf = appendF32s(buf, t.Data)
	}
	return buf
}

// selectionLen returns exactly the bytes encodeSelection appends for s.
func selectionLen(s *grad.Selection) int {
	n := 2 + len(s.Var) + 4 + 1 + 4 // name, total, flag, count
	if s.Prec == grad.PrecI8 {
		n += 4 + 1 // scale, zero point
	}
	if s.Dense != nil {
		return n + s.Prec.ElemBytes()*len(s.Dense)
	}
	return n + (4+s.Prec.ElemBytes())*len(s.Val)
}

func encodeSelection(buf []byte, s *grad.Selection) []byte {
	buf = le16(buf, uint16(len(s.Var)))
	buf = append(buf, s.Var...)
	buf = le32(buf, uint32(s.Total))
	flag := uint8(s.Prec) << selPrecShift
	if s.Dense != nil {
		flag |= selDenseBit
	}
	buf = append(buf, flag)
	vals := s.Dense
	if s.Dense == nil {
		vals = s.Val
	}
	buf = le32(buf, uint32(len(vals)))
	if s.Prec == grad.PrecI8 {
		// Per-variable dequantization parameters, present even for an
		// empty selection so the layout is position-independent of count.
		buf = le32(buf, math.Float32bits(s.Scale))
		buf = append(buf, byte(s.Zero))
	}
	if s.Dense != nil && s.Prec == grad.PrecF32 {
		return appendF32s(buf, vals)
	}
	for k, v := range vals {
		if s.Dense == nil {
			buf = le32(buf, uint32(s.Idx[k]))
		}
		switch s.Prec {
		case grad.PrecF16:
			// Prefer the stored payload (canonical re-encode of a decoded
			// frame); fall back to quantizing on the fly for selections
			// built without Quantize.
			if s.F16 != nil {
				buf = le16(buf, s.F16[k])
			} else {
				buf = le16(buf, grad.F16Bits(v))
			}
		case grad.PrecI8:
			if s.Q8 != nil {
				buf = append(buf, byte(s.Q8[k]))
			} else {
				buf = append(buf, byte(grad.QuantizeI8(v, s.Scale, s.Zero)))
			}
		default:
			buf = le32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// Decode parses a message produced by Encode.
func Decode(data []byte) (*Message, error) {
	r := &reader{data: data}
	m := &Message{}
	t, err := r.u8()
	if err != nil {
		return nil, err
	}
	m.Type = MsgType(t)
	if _, ok := typeNames[m.Type]; !ok {
		return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, t)
	}
	if m.From, err = r.i32(); err != nil {
		return nil, err
	}
	if m.To, err = r.i32(); err != nil {
		return nil, err
	}
	iter, err := r.u64()
	if err != nil {
		return nil, err
	}
	m.Iter = int64(iter)
	switch m.Type {
	case TypeGradient:
		if m.LBS, err = r.i32(); err != nil {
			return nil, err
		}
		count, err := r.u32()
		if err != nil {
			return nil, err
		}
		if count > 1<<20 {
			return nil, fmt.Errorf("%w: selection count %d", ErrCorrupt, count)
		}
		for i := uint32(0); i < count; i++ {
			s, err := decodeSelection(r)
			if err != nil {
				return nil, err
			}
			m.Selections = append(m.Selections, s)
		}
		m.pooled = r.pooled
	case TypeWeights:
		if m.Weights, err = decodeWeights(r); err != nil {
			return nil, err
		}
	case TypeLossReport:
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.Loss = math.Float64frombits(bits)
	case TypeRCPReport:
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.RCP = math.Float64frombits(bits)
	case TypeHello:
		if m.Flags, err = r.u8(); err != nil {
			return nil, err
		}
		if m.Flags > HelloNeedSync {
			return nil, fmt.Errorf("%w: hello flags %#x", ErrCorrupt, m.Flags)
		}
		epoch, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.Epoch = int64(epoch)
		if m.Quant, err = r.u8(); err != nil {
			return nil, err
		}
		if grad.PrecMask(m.Quant) > grad.MaskAll {
			return nil, fmt.Errorf("%w: quant mask %#x", ErrCorrupt, m.Quant)
		}
	case TypeWelcome:
		epoch, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.Epoch = int64(epoch)
		gbs, err := r.u32()
		if err != nil {
			return nil, err
		}
		m.GBS = int32(gbs)
		if m.Quant, err = r.u8(); err != nil {
			return nil, err
		}
		if grad.PrecMask(m.Quant) > grad.MaskAll {
			return nil, fmt.Errorf("%w: quant mask %#x", ErrCorrupt, m.Quant)
		}
		count, err := r.u32()
		if err != nil {
			return nil, err
		}
		if count > 1<<20 || int(count)*4 > r.remaining() {
			return nil, fmt.Errorf("%w: member count %d", ErrCorrupt, count)
		}
		if count > 0 {
			m.Members = make([]int32, count)
			for i := range m.Members {
				id, _ := r.u32()
				m.Members[i] = int32(id)
			}
		}
		if m.Weights, err = decodeWeights(r); err != nil {
			return nil, err
		}
	case TypeLeave:
		epoch, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.Epoch = int64(epoch)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}
	return m, nil
}

func decodeWeights(r *reader) (map[string]*tensor.Tensor, error) {
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: weight count %d", ErrCorrupt, count)
	}
	w := make(map[string]*tensor.Tensor, count)
	for i := uint32(0); i < count; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(n)*4 > r.remaining() {
			return nil, ErrTruncated
		}
		t := tensor.New(int(n))
		r.f32s(t.Data)
		w[name] = t
	}
	return w, nil
}

func decodeSelection(r *reader) (*grad.Selection, error) {
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	total, err := r.u32()
	if err != nil {
		return nil, err
	}
	flag, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flag > selFlagMax {
		return nil, fmt.Errorf("%w: selection flag %d", ErrCorrupt, flag)
	}
	prec := grad.Precision(flag >> selPrecShift)
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	s := &grad.Selection{Var: name, Total: int(total), Prec: prec}
	if prec == grad.PrecI8 {
		bits, err := r.u32()
		if err != nil {
			return nil, err
		}
		s.Scale = math.Float32frombits(bits)
		z, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Zero = int8(z)
	}
	elem := prec.ElemBytes()
	if flag&selDenseBit != 0 {
		if int(n)*elem > r.remaining() {
			return nil, ErrTruncated
		}
		s.Dense = f32Pool.Get(int(n))
		r.pooled = r.pooled || f32Pool.Recyclable(s.Dense)
		fillValues(r, s, s.Dense)
		return s, nil
	}
	if int(n)*(4+elem) > r.remaining() {
		return nil, ErrTruncated
	}
	if n == 0 {
		return s, nil
	}
	s.Idx = i32Pool.Get(int(n))
	s.Val = f32Pool.Get(int(n))
	r.pooled = r.pooled || f32Pool.Recyclable(s.Val)
	fillValues(r, s, s.Val)
	return s, nil
}

// fillValues reads n payload values at the selection's precision into dst
// (the float32 image a receiver works with), storing raw quantized codes on
// s so a re-encode is byte-identical even for hostile scale values. For a
// sparse selection (s.Idx non-nil) each value is preceded by its index. The
// caller has verified that r holds enough bytes; reads cannot fail.
func fillValues(r *reader, s *grad.Selection, dst []float32) {
	if len(dst) == 0 {
		return // keep Q8/F16 nil, matching an empty sender selection
	}
	switch s.Prec {
	case grad.PrecF16:
		s.F16 = make([]uint16, len(dst))
		for i := range dst {
			if s.Idx != nil {
				idx, _ := r.u32()
				s.Idx[i] = int32(idx)
			}
			s.F16[i], _ = r.u16()
			dst[i] = grad.F16FromBits(s.F16[i])
		}
	case grad.PrecI8:
		s.Q8 = make([]int8, len(dst))
		for i := range dst {
			if s.Idx != nil {
				idx, _ := r.u32()
				s.Idx[i] = int32(idx)
			}
			q, _ := r.u8()
			s.Q8[i] = int8(q)
			dst[i] = grad.DequantizeI8(s.Q8[i], s.Scale, s.Zero)
		}
	default:
		if s.Idx == nil {
			r.f32s(dst)
			return
		}
		for i := range dst {
			idx, _ := r.u32()
			s.Idx[i] = int32(idx)
			bits, _ := r.u32()
			dst[i] = math.Float32frombits(bits)
		}
	}
}

// --- low-level helpers ---

func le16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func le32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func le64(b []byte, v uint64) []byte {
	return le32(le32(b, uint32(v)), uint32(v>>32))
}

type reader struct {
	data   []byte
	off    int
	pooled bool // some Selection storage came from a free list
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) i32() (int32, error) {
	v, err := r.u32()
	return int32(v), err
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

// f32s fills dst with the next len(dst) little-endian IEEE-754 words. The
// caller has verified that r holds them.
func (r *reader) f32s(dst []float32) {
	if hostLE {
		r.off += copy(f32Bytes(dst), r.data[r.off:r.off+4*len(dst)])
		return
	}
	for i := range dst {
		bits, _ := r.u32()
		dst[i] = math.Float32frombits(bits)
	}
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxName || r.remaining() < int(n) {
		return "", ErrTruncated
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}
