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

// weightSet is what the digest helpers read: a model's parameters in place,
// or a name→tensor weight map.
type weightSet interface {
	*nn.Model | map[string]*tensor.Tensor
}

// Digests hashes every variable of w once and returns the combined digest
// with the per-variable digests it folds: the Digest and Vars a manifest
// commits to. The combined digest folds the per-variable hashes in sorted
// name order (name bytes, then hash), so it is independent of map iteration
// order and two weight sets digest equally iff every variable is bitwise
// identical.
func Digests[W weightSet](w W) (Hash, map[string]Hash) {
	vars := make(map[string]Hash, size(w))
	return fold(w, vars), vars
}

// WeightsHash is the combined digest of a weight map.
func WeightsHash(w map[string]*tensor.Tensor) Hash { return fold(w, make(map[string]Hash, len(w))) }

// ModelHash digests every parameter of a model — the manifest commitment a
// checkpoint writer publishes.
func ModelHash(m *nn.Model) Hash { return fold(m, make(map[string]Hash, len(m.Params()))) }

// size is w's variable count, the map hint for one digest pass.
func size[W weightSet](w W) int {
	switch w := any(w).(type) {
	case *nn.Model:
		return len(w.Params())
	case map[string]*tensor.Tensor:
		return len(w)
	}
	return 0
}

// fold is the one hashing pass behind Digests, WeightsHash and ModelHash:
// it records each variable's digest in vars and returns their combination.
func fold[W weightSet](w W, vars map[string]Hash) Hash {
	switch w := any(w).(type) {
	case *nn.Model:
		for _, p := range w.Params() {
			vars[p.Name] = TensorHash(p.W)
		}
	case map[string]*tensor.Tensor:
		for name, t := range w {
			vars[name] = TensorHash(t)
		}
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
