// Package sim provides the low-level simulation kernel shared by the rest of
// the repository: a deterministic pseudo-random number generator suitable for
// reproducible network simulations, and small numeric helpers.
//
// The simulator is cycle driven rather than event driven: internal/network
// advances the whole system one clock cycle at a time. This package therefore
// stays deliberately small; the interesting machinery lives in
// internal/router and internal/network.
package sim

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256**, seeded via splitmix64. It is not safe for concurrent use;
// every simulation owns exactly one RNG so that a (seed, configuration) pair
// fully determines the run.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// independent streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if freshly created with NewRNG(seed).
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion of the 64-bit seed into 256 bits of state.
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p (clamped to [0, 1]). It is
// Hit(ChanceOf(p)): p ≤ 0 (or NaN) and p ≥ 1 draw nothing.
func (r *RNG) Bernoulli(p float64) bool { return r.Hit(ChanceOf(p)) }

// Chance is a probability as Hit tests it, in one integer comparison:
// ⌈p·2^53⌉ for 0 < p < 1, since a 53-bit draw x has Float64() = x/2^53 < p
// exactly when x < ⌈p·2^53⌉ (p·2^53 is exact).
type Chance uint64

// Never and Always are the chances Hit decides without a draw.
const Never, Always Chance = 0, 1<<64 - 1

// ChanceOf returns p as a Chance: Never for p ≤ 0 or NaN, Always for p ≥ 1.
func ChanceOf(p float64) Chance {
	switch {
	case !(p > 0):
		return Never
	case p >= 1:
		return Always
	}
	return Chance(math.Ceil(p * (1 << 53)))
}

// Hit reports true with probability c.
func (r *RNG) Hit(c Chance) bool {
	if c == Never || c == Always {
		return c == Always
	}
	return Chance(r.Uint64()>>11) < c
}

// Split derives a child RNG whose stream is independent of subsequent draws
// from the parent. It is used to give each traffic source its own stream so
// that adding instrumentation draws does not perturb workloads.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// State returns the generator's full 256-bit internal state. Together with
// SetState it lets a checkpoint capture and later resume a random stream at
// the exact draw it was interrupted at (the snapshot subsystem depends on
// this for byte-identical restored runs).
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// obtained from State, resuming its stream exactly. Any value is accepted:
// xoshiro256** never panics, and legitimate snapshots never contain the
// degenerate all-zero state (Seed guards against producing it).
func (r *RNG) SetState(s [4]uint64) { r.s = s }
