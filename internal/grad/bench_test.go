package grad

import (
	"testing"

	"dlion/internal/nn"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

func benchParams(n int) []*nn.Param {
	rng := stats.NewRNG(1)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	p := &nn.Param{Name: "w", W: tensor.New(n), G: tensor.FromSlice(g, n)}
	for i := range p.W.Data {
		p.W.Data[i] = 1
	}
	return []*nn.Param{p}
}

func BenchmarkFullSelect(b *testing.B) {
	ps := benchParams(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Full{}.Select(0, ps, 0)
	}
}

func BenchmarkMaxNSelectFixed(b *testing.B) {
	ps := benchParams(100_000)
	m := NewMaxN(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Select(0, ps, 0)
	}
}

func BenchmarkMaxNSelectBudgeted(b *testing.B) {
	ps := benchParams(100_000)
	m := NewMaxN(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Select(0, ps, 50_000)
	}
}

// BenchmarkMaxNSelectTwoTiers is a federation worker's selection for one
// iteration: one gradient under a LAN and a WAN link budget, asked for in
// one call, so the histogram is built once for both.
func BenchmarkMaxNSelectTwoTiers(b *testing.B) {
	ps := benchParams(100_000)
	m := NewMaxN(100)
	budgets := []int{50_000, 5_000}
	out := make([][]*Selection, len(budgets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SelectBudgets(ps, budgets, out)
	}
}

func BenchmarkGaiaSelect(b *testing.B) {
	ps := benchParams(100_000)
	g := NewGaia(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Select(0, ps, 0)
	}
}

func BenchmarkAkoSelect(b *testing.B) {
	ps := benchParams(100_000)
	a := NewAko(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Select(0, ps, 0)
	}
}

func BenchmarkSelectionAddTo(b *testing.B) {
	ps := benchParams(100_000)
	sels := NewMaxN(50).Select(0, ps, 0)
	dst := make([]float32, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sels {
			s.AddTo(dst, 0.01)
		}
	}
}

// BenchmarkSelectionAddToDense is a peer's dense update (Full, or Max-N's
// dense fallback), the branch core.applyRemoteGradient runs on train_wire.
func BenchmarkSelectionAddToDense(b *testing.B) {
	ps := benchParams(100_000)
	sels := Full{}.Select(0, ps, 0)
	dst := make([]float32, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sels {
			s.AddTo(dst, 0.01)
		}
	}
}

// BenchmarkMaxNQuickselect measures the quickselect top-k index selection
// that TopK.Select runs per variable; BenchmarkMaxNSortBaseline is the
// previous full-sort implementation on the same input, kept as the
// comparison point (topKIndicesSort).
func BenchmarkMaxNQuickselect(b *testing.B) {
	ps := benchParams(100_000)
	g := ps[0].G.Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKIndices(g, 1000)
	}
}

func BenchmarkMaxNSortBaseline(b *testing.B) {
	ps := benchParams(100_000)
	g := ps[0].G.Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKIndicesSort(g, 1000)
	}
}
