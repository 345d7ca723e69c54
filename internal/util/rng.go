// Package util provides deterministic pseudo-randomness and small numeric
// helpers shared by the simulator. All stochastic decisions in the simulator
// (stochastic replacement, counter sampling, victim selection, synthetic
// trace generation) draw from util.RNG so that a run is reproducible
// bit-for-bit from its seed.
package util

import (
	"fmt"
	"hash/fnv"
)

// RNG is a SplitMix64 pseudo-random number generator. It is small, fast,
// passes BigCrush, and — unlike math/rand's global state — gives every
// component its own deterministic stream. The zero value is a valid
// generator seeded with 0; prefer NewRNG to mix the seed first.
type RNG struct {
	state uint64
}

// NewRNG returns a generator whose stream is determined entirely by seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm the state so that small, similar seeds (0, 1, 2...) produce
	// uncorrelated streams from the first draw.
	r.Uint64()
	return r
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("util: Uint64n called with n == 0")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. p outside [0,1] saturates.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Fork derives an independent child generator. Deriving children rather
// than sharing one stream keeps component behavior stable when an unrelated
// component adds or removes draws.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
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

// RollKey maps a formatted key to a uniform draw in [0, 1), for
// decisions keyed by a hash rather than drawn from a stream (fault
// injection, retry jitter). The key's FNV-64a sum is run through the
// murmur3 fmix64 finalizer first: FNV-64a barely avalanches its final
// input byte, so two keys differing only in a trailing digit
// (consecutive attempt counters) would land within ~1e-7 of each other
// and draw the same decision.
func RollKey(format string, args ...any) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}
