package lineage

import (
	"hash/fnv"
	"math"
	"sort"

	"dlion/internal/nn"
	"dlion/internal/tensor"
)

// TensorHash returns the FNV-1a 64-bit hash of a tensor's exact float32
// bit patterns (little-endian), preceded by its shape. Two tensors hash
// equally iff they are bitwise identical, including NaN payloads and
// signed zeros. It is the one weight digest: the conformance harness,
// published manifests and the serving registry all compare these.
func TensorHash(t *tensor.Tensor) Hash {
	h := fnv.New64a()
	var buf [4]byte
	le32 := func(v uint32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	for _, d := range t.Shape {
		le32(uint32(d))
	}
	for _, v := range t.Data {
		le32(math.Float32bits(v))
	}
	return Hash(h.Sum64())
}

// VarHashes hashes every variable of a weight map independently, so a
// digest mismatch can be attributed to a single variable.
func VarHashes(w map[string]*tensor.Tensor) map[string]Hash {
	out := make(map[string]Hash, len(w))
	for name, t := range w {
		out[name] = TensorHash(t)
	}
	return out
}

// WeightsHash folds a weight map into one content digest: the per-variable
// hashes are combined in sorted name order (name bytes, then hash), so the
// digest is independent of map iteration order and two weight maps hash
// equally iff every variable is bitwise identical.
func WeightsHash(w map[string]*tensor.Tensor) Hash {
	return combine(VarHashes(w))
}

// ModelHash digests every parameter of a model — the manifest commitment a
// checkpoint writer publishes.
func ModelHash(m *nn.Model) Hash {
	vars := make(map[string]Hash, len(m.Params()))
	for _, p := range m.Params() {
		vars[p.Name] = TensorHash(p.W)
	}
	return combine(vars)
}

// combine folds per-variable hashes in sorted name order.
func combine(vars map[string]Hash) Hash {
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		v := uint64(vars[name])
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return Hash(h.Sum64())
}

// Fingerprint hashes a canonical configuration summary string (e.g.
// core.Config.Fingerprint()) into the manifest's config commitment.
func Fingerprint(s string) Hash {
	h := fnv.New64a()
	h.Write([]byte(s))
	return Hash(h.Sum64())
}
