// Package stats provides the deterministic random-number and statistics
// toolkit used throughout the gLLM reproduction: a seedable PRNG with
// stream-splitting, samplers for the distributions the workload generators
// need, and summary/histogram helpers for the experiment harness.
//
// Everything here is deterministic given a seed so that simulations and
// tests are exactly reproducible across runs and machines.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64 seeding feeding an xoshiro256** state. It is not safe for
// concurrent use; create one per goroutine via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to expand the seed into four non-degenerate words.
	x := seed
	for i := range r.s {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, and advances r once.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD2B74407B1CE6E93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It panics unless rate > 0 (NaN included).
func (r *RNG) Exp(rate float64) float64 {
	if !(rate > 0) {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Norm returns a standard normal sample via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}
