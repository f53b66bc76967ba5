package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestRegistryConcurrentAttachSnapshot hammers one registry from many
// goroutines doing lookups, attaches, recording, and snapshots at once —
// the access pattern of a controller process where jobs come and go while
// the debug endpoint renders /debug/vars. Run under -race.
func TestRegistryConcurrentAttachSnapshot(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("m%d", i%7)
				r.Counter(name).Inc()
				r.Gauge(name + ".g").Set(int64(i))
				r.Histogram(name + ".h").Observe(float64(i) * 1e-4)
				r.AttachCounter(fmt.Sprintf("ext%d", g), &Counter{})
				r.AttachGauge(fmt.Sprintf("extg%d", g), &Gauge{})
				if i%10 == 0 {
					r.Snapshot()
					r.HistogramSummaries()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot()
	var total int64
	for i := 0; i < 7; i++ {
		total += snap[fmt.Sprintf("m%d", i)]
	}
	if want := int64(goroutines * rounds); total != want {
		t.Errorf("counters sum to %d, want %d", total, want)
	}
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("m%d.h", i)
		if s := r.HistogramSummaries()[name]; s.Count == 0 {
			t.Errorf("histogram %s empty after concurrent observes", name)
		}
	}
}

// TestRegistryAttachReplaces checks the documented replace-on-reattach
// behavior: the snapshot follows the newest handle.
func TestRegistryAttachReplaces(t *testing.T) {
	r := NewRegistry()
	first := &Counter{}
	first.Add(5)
	r.AttachCounter("x", first)
	second := &Counter{}
	second.Add(9)
	r.AttachCounter("x", second)
	if got := r.Snapshot()["x"]; got != 9 {
		t.Errorf("snapshot x = %d, want the re-attached counter's 9", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	if s := h.Summary(); s.Count != 0 || s.Mean != 0 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("empty Summary = %+v, want zeroes", s)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %g, want 0", got)
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram()
	const v = 0.0042
	h.Observe(v)
	// With one sample every quantile's owning bucket holds it, and the
	// interpolation is floored at the exact recorded min and capped at the
	// exact max, so every quantile is v itself.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Errorf("single-sample Quantile(%g) = %g, want %g", q, got, v)
		}
	}
	if got := h.Max(); got != v {
		t.Errorf("Max = %g, want exact %g", got, v)
	}
}

// TestHistogramQuantileAllOneBucket: identical observations report
// themselves, not a point between their bucket's lower edge and them (a
// batch-fill histogram that only ever saw 1 used to report p50 = 0.908).
func TestHistogramQuantileAllOneBucket(t *testing.T) {
	for _, v := range []float64{1, 0.010} {
		h := NewHistogram()
		for i := 0; i < 1000; i++ {
			h.Observe(v)
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.999, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("all-%g Quantile(%g) = %g, want %g", v, q, got, v)
			}
		}
	}
}

// TestHistogramQuantileMonotone: on a seeded mix spanning many buckets the
// estimate never decreases in q and stays inside [min, max].
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	min, max := math.Inf(1), 0.0
	for i := 0; i < 500; i++ {
		v := math.Exp(rng.Float64()*12 - 10) // ~45 µs .. ~7
		h.Observe(v)
		min, max = math.Min(min, v), math.Max(max, v)
	}
	prev := h.Quantile(0)
	if prev < min {
		t.Errorf("Quantile(0) = %g below the observed min %g", prev, min)
	}
	for q := 0.01; q <= 1; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Errorf("Quantile(%.2f) = %g below Quantile(%.2f) = %g", q, got, q-0.01, prev)
		}
		prev = got
	}
	if prev > max {
		t.Errorf("Quantile(1) = %g above the observed max %g", prev, max)
	}
}

func TestHistogramQuantileZeroValues(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	// Bucket 0 is [0, histBase); the max is exactly 0, so the cap pins
	// every quantile to 0.
	for _, q := range []float64{0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("all-zero Quantile(%g) = %g, want 0", q, got)
		}
	}
}

func TestHistogramRejectsGarbage(t *testing.T) {
	h := NewHistogram()
	h.Observe(-1)
	h.Observe(nan())
	if h.Count() != 0 {
		t.Errorf("count %d after negative/NaN observes, want 0", h.Count())
	}
}

func nan() float64 { z := 0.0; return z / z }
