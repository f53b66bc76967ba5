package lineage

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strings"

	"dlion/internal/nn"
	"dlion/internal/tensor"
)

// TensorHash returns the FNV-1a 64-bit hash of a tensor's exact float32
// bit patterns (little-endian), preceded by its shape. Two tensors hash
// equally iff they are bitwise identical, including NaN payloads and
// signed zeros. It is the one weight digest: the conformance harness,
// published manifests and the serving registry all compare these.
func TensorHash(t *tensor.Tensor) Hash { return leHash(t.Shape, nn.LEBytes(t.Data)) }

// leHash is TensorHash of a tensor of the given shape whose values'
// little-endian bytes are le: the shape prefix, then the values in one
// write.
func leHash(shape []int, le []byte) Hash {
	h := fnv.New64a()
	prefix := make([]byte, 0, 4*len(shape))
	for _, d := range shape {
		prefix = binary.LittleEndian.AppendUint32(prefix, uint32(d))
	}
	h.Write(prefix)
	h.Write(le)
	return Hash(h.Sum64())
}

// CheckpointHash validates ckpt against l and digests it straight from its
// bytes: ModelHash of the model it would restore into, without a model.
func CheckpointHash(l nn.Layout, ckpt []byte) (Hash, error) {
	vars := make(map[string]Hash, len(l.Shapes))
	if err := l.Read(ckpt, func(name string, shape []int, le []byte) { vars[strings.Clone(name)] = leHash(shape, le) }); err != nil {
		return 0, err
	}
	return combine(vars), nil
}

// VarHashes hashes every variable of a weight map independently, so a
// digest mismatch can be attributed to a single variable.
func VarHashes(w map[string]*tensor.Tensor) map[string]Hash {
	_, vars := Digests(w)
	return vars
}

// Digests is the one digest pass: it hashes every variable of w once and
// returns the combined digest with the per-variable digests it folds, the
// Digest and Vars a manifest commits to. The combined digest folds the
// per-variable hashes in sorted name order (name bytes, then hash), so it is
// independent of map iteration order and two weight sets digest equally iff
// every variable is bitwise identical.
func Digests[W nn.Weights](w W) (Hash, map[string]Hash) {
	vars := map[string]Hash{}
	nn.EachWeight(w, func(name string, t *tensor.Tensor) { vars[name] = TensorHash(t) })
	return combine(vars), vars
}

// WeightsHash is the combined digest of a weight map.
func WeightsHash(w map[string]*tensor.Tensor) Hash {
	h, _ := Digests(w)
	return h
}

// ModelHash digests every parameter of a model — the manifest commitment a
// checkpoint writer publishes.
func ModelHash(m *nn.Model) Hash {
	h, _ := Digests(m)
	return h
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
