package simclock

import (
	"math/rand"
	"testing"
)

type noop struct{}

func (noop) Fire() {}

// BenchmarkEngineBurst is the schedule shape a 256-worker federation puts
// on the engine at t = 0 (burstSchedule): 65 280 deliveries inside 15 ms of
// virtual time, heavy with ties, beside eight timers seconds away — pushed,
// then drained. A scheduler whose cost depends on how timestamps spread
// shows up here and nowhere in an evenly spread probe: the calendar queue
// this heap replaced ran it at 27 k events/s against 2.8 M/s (DESIGN.md
// §14).
func BenchmarkEngineBurst(b *testing.B) {
	times := burstSchedule(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New()
		for _, at := range times {
			eng.AtHandler(at, noop{})
		}
		eng.RunAll()
	}
	b.ReportMetric(float64(b.N*len(times))/b.Elapsed().Seconds(), "events/s")
}

// holdEvent reschedules itself a pre-drawn exponential gap ahead each time
// it fires, so the queue stays at its initial size.
type holdEvent struct {
	eng  *Engine
	gaps []float64
	i    int
}

func (h *holdEvent) Fire() {
	h.i++
	h.eng.AtHandler(h.eng.Now()+h.gaps[h.i%len(h.gaps)], h)
}

// BenchmarkEngineHold is the classic hold model: a queue held at 4096
// events, each op popping the earliest and pushing one an exponential gap
// later. It is a calendar queue's best case (on the bare queue ≈1.4× this
// heap at this size, level through the Engine; DESIGN.md §14), kept so that
// trade stays visible.
func BenchmarkEngineHold(b *testing.B) {
	const size = 4096
	rng := rand.New(rand.NewSource(5))
	eng := New()
	for i := 0; i < size; i++ {
		gaps := make([]float64, 64)
		for j := range gaps {
			gaps[j] = rng.ExpFloat64()
		}
		eng.AtHandler(gaps[0], &holdEvent{eng: eng, gaps: gaps})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
