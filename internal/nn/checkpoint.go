package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Checkpointing: the paper's workload is periodic — "DL models then
// periodically start or resume training process with the collected data"
// (§1) — so models must round-trip through storage between sessions. The
// format is a simple self-describing binary: a magic header, the model
// name, and each parameter as (name, length, float32 values).

var checkpointMagic = [4]byte{'D', 'L', 'N', '1'}

// ErrBadCheckpoint reports a structurally invalid checkpoint.
var ErrBadCheckpoint = errors.New("nn: bad checkpoint")

// Checkpoint serializes the model's weights.
func (m *Model) Checkpoint() []byte {
	size := 4 + 2 + len(m.ModelName) + 4
	for _, p := range m.params {
		size += 2 + len(p.Name) + 4 + 4*p.W.Len()
	}
	buf := make([]byte, 0, size)
	buf = append(buf, checkpointMagic[:]...)
	buf = appendString(buf, m.ModelName)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.params)))
	for _, p := range m.params {
		buf = appendString(buf, p.Name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.W.Len()))
		for _, v := range p.W.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// Restore loads weights from a checkpoint produced by Checkpoint. The
// model architecture must match: every checkpointed parameter must exist
// with the same length, and every model parameter must be present.
func (m *Model) Restore(data []byte) error {
	if len(data) < 4 || [4]byte(data[:4]) != checkpointMagic {
		return fmt.Errorf("%w: missing magic", ErrBadCheckpoint)
	}
	off := 4
	name, off, err := readString(data, off)
	if err != nil {
		return err
	}
	if name != m.ModelName {
		return fmt.Errorf("%w: checkpoint of %q, model is %q", ErrBadCheckpoint, name, m.ModelName)
	}
	if off+4 > len(data) {
		return fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	count := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if int(count) != len(m.params) {
		return fmt.Errorf("%w: %d parameters, model has %d", ErrBadCheckpoint, count, len(m.params))
	}
	// count equals len(m.params), so a name given twice means another is
	// missing and would silently keep whatever the replica held before.
	seen := make(map[*Param]bool, count)
	for i := uint32(0); i < count; i++ {
		pname, next, err := readString(data, off)
		if err != nil {
			return err
		}
		off = next
		if off+4 > len(data) {
			return fmt.Errorf("%w: truncated", ErrBadCheckpoint)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		p := m.byName[pname]
		if p == nil {
			return fmt.Errorf("%w: unknown parameter %q", ErrBadCheckpoint, pname)
		}
		if seen[p] {
			return fmt.Errorf("%w: parameter %q given twice", ErrBadCheckpoint, pname)
		}
		seen[p] = true
		if p.W.Len() != n {
			return fmt.Errorf("%w: %q has %d values, model wants %d",
				ErrBadCheckpoint, pname, n, p.W.Len())
		}
		if off+4*n > len(data) {
			return fmt.Errorf("%w: truncated values", ErrBadCheckpoint)
		}
		for k := 0; k < n; k++ {
			p.W.Data[k] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(data)-off)
	}
	return nil
}

// ScanCheckpoint structurally validates a checkpoint without a model: the
// magic, model name, parameter count, and every (name, length, values)
// record must parse and consume the buffer exactly. It returns the model
// name and total value count. Serving watchers use it to reject torn or
// truncated files — a partial write fails here, before any swap is
// attempted against a live registry.
func ScanCheckpoint(data []byte) (model string, values int, err error) {
	if len(data) < 4 || [4]byte(data[:4]) != checkpointMagic {
		return "", 0, fmt.Errorf("%w: missing magic", ErrBadCheckpoint)
	}
	off := 4
	model, off, err = readString(data, off)
	if err != nil {
		return "", 0, err
	}
	if off+4 > len(data) {
		return "", 0, fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	count := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	// Each parameter record is at least 6 bytes (empty name, zero length),
	// so a count the remaining bytes cannot hold is structurally bogus —
	// reject it before looping.
	if count > (len(data)-off)/6 {
		return "", 0, fmt.Errorf("%w: %d parameters in %d bytes", ErrBadCheckpoint, count, len(data)-off)
	}
	for i := 0; i < count; i++ {
		if _, off, err = readString(data, off); err != nil {
			return "", 0, err
		}
		if off+4 > len(data) {
			return "", 0, fmt.Errorf("%w: truncated", ErrBadCheckpoint)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || off+4*n > len(data) {
			return "", 0, fmt.Errorf("%w: truncated values", ErrBadCheckpoint)
		}
		off += 4 * n
		values += n
	}
	if off != len(data) {
		return "", 0, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(data)-off)
	}
	return model, values, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readString(data []byte, off int) (string, int, error) {
	if off+2 > len(data) {
		return "", 0, fmt.Errorf("%w: truncated string", ErrBadCheckpoint)
	}
	n := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+n > len(data) {
		return "", 0, fmt.Errorf("%w: truncated string body", ErrBadCheckpoint)
	}
	return string(data[off : off+n]), off + n, nil
}
