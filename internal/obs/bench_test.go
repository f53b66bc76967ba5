package obs

// These benchmarks back the nil-sink design claim: with observability
// disabled the hot path pays one nil check per recording call and performs
// no stores or allocations. Run with:
//
//	go test -bench=. -benchmem ./internal/obs
//
// Expect the Nil variants at well under a nanosecond per op, 0 allocs.

import "testing"

func BenchmarkWorkerObsAddPhaseNil(b *testing.B) {
	var o *WorkerObs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.AddPhase(PhaseCompute, 0.001)
	}
}

func BenchmarkWorkerObsAddPhase(b *testing.B) {
	o := NewWorkerObs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.AddPhase(PhaseCompute, 0.001)
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
