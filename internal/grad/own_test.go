package grad

import (
	"math"
	"testing"
	"unsafe"

	"dlion/internal/nn"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

// seededParam returns one variable with a seeded normal gradient.
func seededParam(name string, n int, seed uint64) *nn.Param {
	rng := stats.NewRNG(seed)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	return &nn.Param{Name: name, W: tensor.New(n), G: tensor.FromSlice(g, n)}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDenseSelectionsBorrowTheGradient: selecting everything costs no copy.
// Full, and Max-N where the threshold admits a whole variable, hand out a
// Dense that is the gradient tensor's own storage, clipped so an append
// cannot grow into it.
func TestDenseSelectionsBorrowTheGradient(t *testing.T) {
	p := seededParam("w", 64, 1)
	for name, sel := range map[string]*Selection{
		"full":     Full{}.Select(0, []*nn.Param{p}, 0)[0],
		"maxN 100": NewMaxN(100).Select(0, []*nn.Param{p}, 0)[0],
		"randomK":  NewRandomK(1, 3).Select(0, []*nn.Param{p}, 0)[0],
	} {
		if len(sel.Dense) != 64 || &sel.Dense[0] != &p.G.Data[0] {
			t.Fatalf("%s: Dense does not alias Param.G", name)
		}
		if cap(sel.Dense) != len(sel.Dense) {
			t.Fatalf("%s: Dense has capacity %d beyond its %d values", name, cap(sel.Dense), len(sel.Dense))
		}
	}
}

// TestOwnDetachesOnce: Own copies a borrowed Dense exactly once and is a
// no-op on everything that never borrowed.
func TestOwnDetachesOnce(t *testing.T) {
	p := seededParam("w", 32, 2)
	want := append([]float32(nil), p.G.Data...)
	sel := Full{}.Select(0, []*nn.Param{p}, 0)[0]
	sel.Own()
	if &sel.Dense[0] == &p.G.Data[0] {
		t.Fatal("Own left Dense aliasing Param.G")
	}
	owned := &sel.Dense[0]
	for i := range p.G.Data {
		p.G.Data[i] = -1 // the next backward pass
	}
	if !sameBits(sel.Dense, want) {
		t.Fatal("an owned selection followed the gradient")
	}
	sel.Own()
	if &sel.Dense[0] != owned {
		t.Fatal("a second Own copied again")
	}

	q := seededParam("s", 32, 3)
	sparse := NewMaxN(10).Select(0, []*nn.Param{q}, 0)[0]
	if sparse.Dense != nil || len(sparse.Val) == 0 {
		t.Fatalf("want a sparse selection, got %d dense / %d sparse values", len(sparse.Dense), len(sparse.Val))
	}
	val := &sparse.Val[0]
	sparse.Own()
	if sparse.Dense != nil || &sparse.Val[0] != val {
		t.Fatal("Own touched a sparse selection")
	}
	// What a decoder builds: exported fields only.
	dense := []float32{1, 2, 3}
	decoded := &Selection{Var: "d", Total: 3, Dense: dense}
	decoded.Own()
	if &decoded.Dense[0] != &dense[0] {
		t.Fatal("Own copied a selection that never borrowed")
	}
}

// TestQuantizeBorrowedLeavesGradientAlone: Quantize writes the dequantized
// image over the selection's values, so on a borrowed Dense it must own
// first: the sender's Param.G stays bit-identical and the payload is what
// quantizing a copy gives.
func TestQuantizeBorrowedLeavesGradientAlone(t *testing.T) {
	for _, prec := range []Precision{PrecI8, PrecF16} {
		p := seededParam("w", 257, 4)
		before := append([]float32(nil), p.G.Data...)
		ref := &Selection{Var: "w", Total: 257, Dense: append([]float32(nil), p.G.Data...)}
		ref.Quantize(prec)

		sel := Full{}.Select(0, []*nn.Param{p}, 0)[0]
		sel.Quantize(prec)
		if !sameBits(p.G.Data, before) {
			t.Fatalf("%v: Quantize rewrote Param.G", prec)
		}
		if &sel.Dense[0] == &p.G.Data[0] {
			t.Fatalf("%v: quantized selection still aliases Param.G", prec)
		}
		if sel.Prec != prec {
			t.Fatalf("selection left at %v, want %v", sel.Prec, prec)
		}
		if d := diffSelections([]*Selection{sel}, []*Selection{ref}); d != "" {
			t.Fatalf("%v: differs from quantizing a copy: %s", prec, d)
		}
	}
}

// TestSelectionSizeClass: the borrowed flag lives in padding. One more word
// moves Selection from the 160-byte allocation class to 176, and Max-N
// allocates one Selection per variable per iteration.
func TestSelectionSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Selection{}); n > 160 {
		t.Fatalf("Selection is %d bytes, want at most 160", n)
	}
}
