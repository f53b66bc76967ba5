package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"dlion/internal/tensor"
)

// Checkpointing: the paper's workload is periodic — "DL models then
// periodically start or resume training process with the collected data"
// (§1) — so models must round-trip through storage between sessions. A
// checkpoint is a magic header, the model name, and the parameters in the
// named-f32 layout: a u32 count, then per entry a u16 name length, the name,
// a u32 value count and the values as little-endian float32s. The layout is
// also the weight map of wire's TypeWeights and TypeWelcome frames (WIRE.md
// §3.1); AppendWeights is its one writer and ReadWeights its one reader.

var checkpointMagic = [4]byte{'D', 'L', 'N', '1'}

// ErrBadCheckpoint reports a structurally invalid checkpoint or weight
// block.
var ErrBadCheckpoint = errors.New("nn: bad checkpoint")

// Weights is a weight set the named-f32 layout holds: a model's parameters
// in layer order, or a name→tensor map in map order.
type Weights interface {
	*Model | map[string]*tensor.Tensor
}

// EachWeight calls fn with every variable of w, in w's order.
func EachWeight[W Weights](w W, fn func(name string, t *tensor.Tensor)) {
	switch w := any(w).(type) {
	case *Model:
		for _, p := range w.params {
			fn(p.Name, p.W)
		}
	case map[string]*tensor.Tensor:
		for name, t := range w {
			fn(name, t)
		}
	}
}

// WeightsLen returns exactly the bytes AppendWeights appends for w.
func WeightsLen[W Weights](w W) int {
	n := 4
	EachWeight(w, func(name string, t *tensor.Tensor) { n += 2 + len(name) + 4 + 4*t.Len() })
	return n
}

// AppendWeights appends w in the named-f32 layout.
func AppendWeights[W Weights](buf []byte, w W) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	count := uint32(0)
	EachWeight(w, func(name string, t *tensor.Tensor) {
		buf = appendString(buf, name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Len()))
		buf = append(buf, LEBytes(t.Data)...)
		count++
	})
	binary.LittleEndian.PutUint32(buf[at:], count)
	return buf
}

// ReadWeights walks the named-f32 layout at the front of data, calling fn
// with each entry's name and its values' little-endian bytes (4 per value),
// and returns the bytes it consumed. Both the name and the bytes alias data,
// so a walk allocates nothing: fn copies what it keeps (strings.Clone for a
// name). A count the remaining bytes cannot hold (an entry takes at least
// 6), a value count past the end and a name given twice are rejected before
// fn sees the entry, so nothing is ever sized from them. Every length check
// holds on 32-bit hosts.
func ReadWeights(data []byte, fn func(name string, le []byte) error) (int, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	count := binary.LittleEndian.Uint32(data)
	off := 4
	if uint64(count) > uint64(len(data)-off)/6 {
		return 0, fmt.Errorf("%w: %d entries in %d bytes", ErrBadCheckpoint, count, len(data)-off)
	}
	// Pooled and emptied after the walk, so its keys never outlive data.
	// Not sized from count: a hostile count the bytes can hold would still
	// buy a map many times the input's size.
	seen := seenPool.Get().(map[string]bool)
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	for i := uint32(0); i < count; i++ {
		name, next, err := readString(data, off)
		if err != nil {
			return 0, err
		}
		off = next
		if len(data)-off < 4 {
			return 0, fmt.Errorf("%w: truncated", ErrBadCheckpoint)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if uint64(n) > uint64(len(data)-off)/4 {
			return 0, fmt.Errorf("%w: %q: %d values in %d bytes", ErrBadCheckpoint, name, n, len(data)-off)
		}
		if seen[name] {
			return 0, fmt.Errorf("%w: %q given twice", ErrBadCheckpoint, name)
		}
		seen[name] = true
		end := off + 4*int(n)
		if err := fn(name, data[off:end]); err != nil {
			return 0, err
		}
		off = end
	}
	return off, nil
}

// seenPool holds ReadWeights' duplicate-name sets.
var seenPool = sync.Pool{New: func() any { return map[string]bool{} }}

// Checkpoint serializes the model's weights.
func (m *Model) Checkpoint() []byte {
	buf := make([]byte, 0, 4+2+len(m.ModelName)+WeightsLen(m))
	buf = append(buf, checkpointMagic[:]...)
	buf = appendString(buf, m.ModelName)
	return AppendWeights(buf, m)
}

// Restore loads weights from a checkpoint produced by Checkpoint. The
// model architecture must match: every checkpointed parameter must exist
// with the same length, and every model parameter must be present once.
func (m *Model) Restore(data []byte) error {
	return m.layout.Read(data, func(name string, _ []int, le []byte) { FromLE(m.byName[name].W.Data, le) })
}

// Layout is what a checkpoint must hold to restore into a model: the model
// name and every parameter's shape by name. A reader holding one validates
// and digests checkpoints without keeping a model.
type Layout struct {
	Model  string
	Shapes map[string][]int
}

// Layout returns the checkpoint layout of the models s builds.
func (s Spec) Layout() Layout { return s.BuildZero().layout }

// Read checks that data is a checkpoint of l — its model name, each
// parameter once at its shape's length — and calls fn with each entry's
// name, shape and values' little-endian bytes (aliasing data).
func (l Layout) Read(data []byte, fn func(name string, shape []int, le []byte)) error {
	got := 0
	err := scanCheckpoint(data, l.Model, func(name string, le []byte) error {
		shape, ok := l.Shapes[name]
		if !ok {
			return fmt.Errorf("%w: unknown parameter %q", ErrBadCheckpoint, name)
		}
		if want := numel(shape); len(le) != 4*want {
			return fmt.Errorf("%w: %q has %d values, model wants %d", ErrBadCheckpoint, name, len(le)/4, want)
		}
		fn(name, shape, le)
		got++
		return nil
	})
	if err == nil && got != len(l.Shapes) {
		err = fmt.Errorf("%w: %d parameters, model has %d", ErrBadCheckpoint, got, len(l.Shapes))
	}
	return err
}

// ScanCheckpoint structurally validates a checkpoint without a model: the
// magic, model name, parameter count, and every (name, length, values)
// record must parse and consume the buffer exactly. Serving watchers use it
// to reject torn or truncated files — a partial write fails here, before
// any swap is attempted against a live registry.
func ScanCheckpoint(data []byte) error {
	return scanCheckpoint(data, "", func(string, []byte) error { return nil })
}

// scanCheckpoint checks the magic and the model name (any name when model
// is empty), walks the weights with ReadWeights and requires them to end
// the buffer.
func scanCheckpoint(data []byte, model string, fn func(name string, le []byte) error) error {
	if len(data) < 4 || [4]byte(data[:4]) != checkpointMagic {
		return fmt.Errorf("%w: missing magic", ErrBadCheckpoint)
	}
	name, off, err := readString(data, 4)
	if err != nil {
		return err
	}
	if model != "" && name != model {
		return fmt.Errorf("%w: checkpoint of %q, model is %q", ErrBadCheckpoint, name, model)
	}
	n, err := ReadWeights(data[off:], fn)
	if err == nil && off+n != len(data) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(data)-off-n)
	}
	return err
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readString reads a u16-length-prefixed string at off, aliasing data.
func readString(data []byte, off int) (string, int, error) {
	if len(data)-off < 2 {
		return "", 0, fmt.Errorf("%w: truncated string", ErrBadCheckpoint)
	}
	n := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if n > len(data)-off {
		return "", 0, fmt.Errorf("%w: truncated string body", ErrBadCheckpoint)
	}
	return unsafe.String(unsafe.SliceData(data[off:]), n), off + n, nil
}

// hostLE reports a little-endian host, where a []float32's memory already is
// its little-endian image and a value block moves with one copy. The
// per-element loops are the path for big-endian hosts.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views vals' memory as bytes, in host order.
func f32Bytes(vals []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}

// LEBytes returns vals as little-endian IEEE-754 words: a view of vals'
// memory on a little-endian host, a copy on a big-endian one. The caller
// must not write to it.
func LEBytes(vals []float32) []byte {
	if hostLE {
		return f32Bytes(vals)
	}
	buf := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// FromLE fills dst from le, len(dst) little-endian IEEE-754 words.
func FromLE(dst []float32, le []byte) {
	if hostLE {
		copy(f32Bytes(dst), le[:4*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(le[4*i:]))
	}
}
