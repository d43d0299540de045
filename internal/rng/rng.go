// Package rng provides the deterministic random-number substrate used by the
// workload generators, the Vth Monte-Carlo model and the property tests. It
// implements SplitMix64 for seeding and xoshiro256** as the core generator,
// plus the distributions the simulator needs (uniform, exponential, Pareto,
// normal, Zipf). Everything is seeded explicitly so simulation runs are
// reproducible bit-for-bit.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used to expand a single seed into the four xoshiro words.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** PRNG.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from a single 64-bit seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	return &src
}

// Split derives an independent child generator. The child stream is a
// function of the parent state and the label, so subsystems can be given
// stable, non-overlapping streams.
func (r *Source) Split(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
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

// Intn returns a uniform int in [0, n). It panics if n <= 0. A power of two
// takes the remainder by mask — the same value without a division (a
// generator's full read-target history is 2^16 entries).
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Float64NonZero returns a uniform float64 in (0, 1): Float64, redrawn
// while it is zero.
func (r *Source) Float64NonZero() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return u
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Source) Exp(mean float64) float64 {
	return -mean * math.Log(r.Float64NonZero())
}

// Pareto returns a bounded Pareto sample in [lo, hi] with shape alpha. It is
// used for bursty inter-arrival gaps and heavy-tailed request sizes.
func (r *Source) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("rng: Pareto requires 0 < lo < hi")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	return x
}

// Normal returns a normally distributed value (Box–Muller).
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm returns a random permutation of [0, n), Fisher–Yates.
func (r *Source) Perm(n int) []int {
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

// Shuffle pseudo-randomly reorders n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
