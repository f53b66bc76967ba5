package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/tensor"
)

// leWords is the per-element little-endian image of vals, the bytes a
// frame must carry for them on any host.
func leWords(vals []float32) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// awkwardFloats are values whose bits a float round trip could disturb:
// quiet and signalling NaNs with payloads, both zeros, denormals, extremes.
func awkwardFloats() []float32 {
	bits := []uint32{
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0x7fbfffff, // NaNs
		0x00000000, 0x80000000, // +0, -0
		0x00000001, 0x807fffff, 0x00400000, // denormals
		0x7f800000, 0xff800000, 0x7f7fffff, 0x00800000, 0x3f800000,
	}
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

// TestBlockCopyMatchesPerElement: the f32 value blocks of gradient, weights
// and welcome frames (one nn.LEBytes/nn.FromLE copy on a little-endian
// host) carry exactly the per-element little-endian words and decode back
// to the same bits, down to NaN payloads and the sign of zero. The
// per-element path itself is held to the block copy in nn.
func TestBlockCopyMatchesPerElement(t *testing.T) {
	awkward := awkwardFloats()
	big := make([]float32, 40_000) // pooled storage on decode
	for i := range big {
		big[i] = awkward[i%len(awkward)]
	}
	weights := map[string]*tensor.Tensor{"w": tensor.FromSlice(append([]float32(nil), awkward...), len(awkward))}
	msgs := []*Message{
		{Type: TypeGradient, Selections: []*grad.Selection{{Var: "a", Total: len(awkward), Dense: awkward}}},
		{Type: TypeGradient, Selections: []*grad.Selection{{Var: "empty", Total: 0, Dense: []float32{}}}},
		{Type: TypeGradient, Selections: []*grad.Selection{{Var: "one", Total: 1, Dense: []float32{awkward[2]}}}},
		{Type: TypeGradient, Selections: []*grad.Selection{
			{Var: "big", Total: len(big), Dense: big},
			{Var: "sparse", Total: 64, Idx: []int32{1, 9, 63}, Val: awkward[:3]}}},
		{Type: TypeWeights, Weights: weights},
		{Type: TypeWelcome, Epoch: 2, Members: []int32{0, 1}, Weights: weights},
	}
	for _, m := range msgs {
		frame := Encode(m)
		blocks := [][]float32{}
		for _, s := range m.Selections {
			blocks = append(blocks, s.Dense)
		}
		for _, w := range m.Weights {
			blocks = append(blocks, w.Data)
		}
		for _, vals := range blocks {
			if !bytes.Contains(frame, leWords(vals)) {
				t.Fatalf("%v: frame lacks the per-element words of a %d-value block", m.Type, len(vals))
			}
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		assertMessageBitsEqual(t, m, got)
		if re := Encode(got); !bytes.Equal(re, frame) {
			t.Fatalf("%v: decoded frame re-encodes differently", m.Type)
		}
	}
}

// corpusFrames returns every frame committed under testdata/fuzz/FuzzDecode.
func corpusFrames(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	out := map[string][]byte{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value fuzz corpus file", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = []byte(s)
	}
	return out
}

// TestCommittedFramesDecodeIdentically: every committed frame decodes as it
// always has — the frames that decoded still do and re-encode to exactly
// the committed bytes (each weights frame holds one variable, so map order
// cannot reorder it), and the rest still fail. The crafted-* frames are
// length fields whose products overflow a 32-bit int; `make conformance`
// runs this under GOARCH=386.
func TestCommittedFramesDecodeIdentically(t *testing.T) {
	decodes := map[string]bool{
		"seed-dkt-req-6": true, "seed-gradient-0": true, "seed-gradient-1": true,
		"seed-gradient-2": true, "seed-gradient-3": true, "seed-hello-9": true,
		"seed-leave-11": true, "seed-loss-5": true, "seed-loss-8": true,
		"seed-rcp-7": true, "seed-sync-8": false, "seed-truncated": false,
		"seed-weights-4": true, "seed-welcome-10": true,
		"crafted-weights-len": false, "crafted-dense-count": false,
		"crafted-sparse-count": false,
	}
	frames := corpusFrames(t)
	if len(frames) != len(decodes) {
		t.Fatalf("%d committed frames, %d pinned verdicts", len(frames), len(decodes))
	}
	for name, frame := range frames {
		want, ok := decodes[name]
		if !ok {
			t.Fatalf("%s: no pinned verdict", name)
		}
		m, err := Decode(frame)
		if (err == nil) != want {
			t.Fatalf("%s: decode err %v, want success %v", name, err, want)
		}
		if err == nil && !bytes.Equal(Encode(m), frame) {
			t.Fatalf("%s: re-encoding differs from the committed frame", name)
		}
	}
}

// TestEncodedLenIsExact: Encode sizes its buffer from encodedLen, so for
// every message type, precision and a long variable name the buffer is never
// regrown, while WireBytes stays the (approximate) cost model.
func TestEncodedLenIsExact(t *testing.T) {
	long := strings.Repeat("v", 200)
	msgs := seedMessages()
	for _, p := range []grad.Precision{grad.PrecF32, grad.PrecF16, grad.PrecI8} {
		dense := &grad.Selection{Var: long, Total: 5, Dense: []float32{1, -2, 3, 0, 5}}
		sparse := &grad.Selection{Var: long, Total: 9, Idx: []int32{0, 4, 8}, Val: []float32{.1, .2, .3}}
		empty := &grad.Selection{Var: long, Total: 0}
		grad.QuantizeAll([]*grad.Selection{dense, sparse, empty}, p)
		msgs = append(msgs, &Message{Type: TypeGradient, Selections: []*grad.Selection{dense, sparse, empty}})
	}
	msgs = append(msgs, &Message{Type: TypeWelcome, Members: []int32{1, 2, 3},
		Weights: map[string]*tensor.Tensor{long: tensor.New(7), "b": tensor.New(0)}})
	for _, m := range msgs {
		want := m.encodedLen()
		if got := len(Encode(m)); got != want {
			t.Fatalf("%v: encodedLen %d, encoded %d bytes", m.Type, want, got)
		}
		dst := make([]byte, 3, 3+want)
		out := AppendEncode(dst, m)
		if len(out) != 3+want || &out[0] != &dst[0] {
			t.Fatalf("%v: AppendEncode regrew a buffer with exactly encodedLen spare bytes", m.Type)
		}
	}
	m := &Message{Type: TypeGradient, Selections: []*grad.Selection{{Var: long, Total: 1, Dense: []float32{1}}}}
	if m.WireBytes() == m.encodedLen() {
		t.Fatal("WireBytes tracked the 200-byte name: the simulator's cost model must not change")
	}
}

// TestReleaseRecyclesWithoutAliasing: storage handed back by Release may
// back the next decoded message, but never two live ones.
func TestReleaseRecyclesWithoutAliasing(t *testing.T) {
	const n = 50_000 // 200 KB of values: above the free-list threshold
	frame := func(seed float32) []byte {
		dense := make([]float32, n)
		idx := make([]int32, n)
		val := make([]float32, n)
		for i := range dense {
			dense[i], idx[i], val[i] = seed+float32(i), int32(i), seed-float32(i)
		}
		return Encode(&Message{Type: TypeGradient, Selections: []*grad.Selection{
			{Var: "d", Total: n, Dense: dense},
			{Var: "s", Total: n, Idx: idx, Val: val},
			{Var: "small", Total: 2, Dense: []float32{seed, seed}}}})
	}
	check := func(m *Message, seed float32) {
		t.Helper()
		if len(m.Selections) != 3 {
			t.Fatalf("message has %d selections", len(m.Selections))
		}
		d, s := m.Selections[0], m.Selections[1]
		for i := 0; i < n; i++ {
			if d.Dense[i] != seed+float32(i) || s.Idx[i] != int32(i) || s.Val[i] != seed-float32(i) {
				t.Fatalf("seed %v: value %d corrupted", seed, i)
			}
		}
	}
	decode := func(f []byte) *Message {
		t.Helper()
		m, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fa, fb := frame(1), frame(-7)

	a := decode(fa)
	check(a, 1)
	a.Release()
	if a.Selections != nil {
		t.Fatal("Release left the selections reachable")
	}
	a.Release() // second call: no-op

	b := decode(fb) // likely reuses a's storage
	a2 := decode(fa)
	check(b, -7)
	check(a2, 1)
	b.Release()
	check(a2, 1) // releasing b must not disturb a live message

	// A message that was built, not decoded, keeps its (shared) selections.
	shared := []float32{1, 2, 3}
	built := &Message{Type: TypeGradient, Selections: []*grad.Selection{{Var: "x", Total: 3, Dense: shared}}}
	built.Release()
	if len(built.Selections) != 1 || &built.Selections[0].Dense[0] != &shared[0] {
		t.Fatal("Release touched a message that was never decoded")
	}
	// Nor may a built message's borrowed Dense reach the free list: it is the
	// sender's live gradient tensor (large enough here to be filed if put).
	g := tensor.New(n)
	for i := range g.Data {
		g.Data[i] = 1 + float32(i)
	}
	borrowed := &Message{Type: TypeGradient,
		Selections: grad.Full{}.Select(0, []*nn.Param{{Name: "d", W: tensor.New(n), G: g}}, 0)}
	borrowed.Release()
	if len(borrowed.Selections) != 1 || &borrowed.Selections[0].Dense[0] != &g.Data[0] {
		t.Fatal("Release took a selection that borrows the sender's gradient")
	}
	c := decode(fa) // would draw the gradient's storage from the pool
	if &c.Selections[0].Dense[0] == &g.Data[0] {
		t.Fatal("Decode filled the sender's gradient tensor")
	}
	check(c, 1)
	if g.Data[n-1] != float32(n) {
		t.Fatal("the gradient was overwritten")
	}
	(*Message)(nil).Release()
}
