// Package stats provides the small statistical toolkit DLion needs: a
// deterministic RNG (so simulations are reproducible run-to-run), simple
// linear regression (the LBS controller fits iteration time against batch
// size to estimate relative compute power), and summary statistics with
// confidence intervals (the paper reports 95% CIs over three runs).
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+). It is not safe for concurrent use; give each worker its
// own stream via Split.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Any seed is acceptable,
// including 0.
func NewRNG(seed uint64) *RNG {
	// splitmix64 to spread the seed across both words.
	r := &RNG{}
	z := seed
	for i := 0; i < 2; i++ {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if i == 0 {
			r.s0 = x
		} else {
			r.s1 = x
		}
	}
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// Split derives an independent generator keyed by id, leaving r unchanged.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.s0 ^ (id+1)*0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
