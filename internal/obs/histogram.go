package obs

import (
	"math"
	"sync/atomic"
)

// Histogram bucket geometry: bucket 0 holds [0, histBase); bucket i in
// [1, numBuckets-1) holds [histBase·g^(i-1), histBase·g^i); the last bucket
// is the overflow catch-all. With histBase = 1µs and 25% growth the range
// reaches ~1500 s, which covers every latency and batch-size distribution
// this repo records while keeping relative quantile error under the growth
// factor.
const (
	numBuckets = 96
	histBase   = 1e-6
	histGrowth = 1.25
)

var logHistGrowth = math.Log(histGrowth)

// Histogram is a lock-free fixed-bucket histogram of non-negative float64
// observations (seconds for latencies, counts for batch sizes). Recording
// is a single atomic add on the owning bucket plus count/sum/min/max updates,
// so it is safe — and cheap — to call from every request. Like Counter and
// Gauge, every method is a no-op (or zero) on a nil receiver.
//
// Quantiles are estimated by linear interpolation inside the owning
// exponential bucket, so their relative error is bounded by the 25% bucket
// growth; the recorded minimum and maximum are exact and bound them.
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64  // sum in 1e-9 fixed point, overflow-safe to ~9e9 units
	maxBits atomic.Uint64 // math.Float64bits of the max (bit order = value order for v >= 0)
	minInv  atomic.Uint64 // ^math.Float64bits of the min: the zero value is "none yet", and a smaller min is a larger word
	buckets [numBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a non-negative observation to its bucket index.
func bucketOf(v float64) int {
	if v < histBase {
		return 0
	}
	i := 1 + int(math.Log(v/histBase)/logHistGrowth)
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketBounds returns bucket i's [lo, hi) value range. The last bucket's
// hi is +Inf.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, histBase
	}
	lo = histBase * math.Pow(histGrowth, float64(i-1))
	if i == numBuckets-1 {
		return lo, math.Inf(1)
	}
	return lo, lo * histGrowth
}

// Observe records one value. Negative and NaN observations are dropped —
// clock skew must not corrupt the distribution.
func (h *Histogram) Observe(v float64) {
	if h == nil || !(v >= 0) {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(v * 1e9))
	bits := math.Float64bits(v)
	raise(&h.maxBits, bits)
	raise(&h.minInv, ^bits)
}

// raise lifts a to at least bits.
func raise(a *atomic.Uint64, bits uint64) {
	for {
		cur := a.Load()
		if bits <= cur || a.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNano.Load()) / 1e9
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded values.
// It returns 0 on an empty (or nil) histogram. Concurrent Observes make
// the answer approximate, which is fine for the monitoring use case.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	max := h.Max()
	min := math.Float64frombits(^h.minInv.Load())
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		lo, hi := bucketBounds(i)
		// The overflow bucket has no finite width; the exact max is the
		// best available upper estimate. Also cap interpolation at max so
		// a lone large value doesn't report above anything ever observed.
		if math.IsInf(hi, 1) || hi > max {
			hi = max
		}
		// Likewise floor it at the exact min: a histogram that only ever
		// saw 1 reports 1, not its bucket's lower edge.
		if min > lo {
			lo = min
		}
		if hi < lo {
			return lo
		}
		frac := float64(rank-cum) / float64(n)
		return lo + float64((hi-lo)*frac)
	}
	return max
}

// HistogramSummary is the report/expvar rendering of a histogram:
// count, mean, max and the standard latency quantiles.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary renders the histogram (zero-valued on nil or empty).
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	return HistogramSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry), mirroring Registry.Counter and Registry.Gauge.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// HistogramSummaries renders every registered histogram as name → summary.
// A nil registry yields an empty map.
func (r *Registry) HistogramSummaries() map[string]HistogramSummary {
	out := map[string]HistogramSummary{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	r.mu.Unlock()
	for name, h := range hs {
		out[name] = h.Summary()
	}
	return out
}

// Expvar renders the registry for /debug/vars: the counter/gauge snapshot
// merged with histogram summaries (one JSON object per histogram).
func (r *Registry) Expvar() map[string]any {
	out := map[string]any{}
	for name, v := range r.Snapshot() {
		out[name] = v
	}
	for name, s := range r.HistogramSummaries() {
		out[name] = s
	}
	return out
}
