package engine

// Seed derivation. Every job's simulation seed is a pure function of the
// sweep's base seed and the job's identity key — never of the worker that
// ran it or the order it completed in. That invariant is what makes a
// parallel sweep bit-identical to a serial one: reordering or re-running
// jobs cannot change the random streams they consume.
//
// The derivation folds the key into 64 bits with FNV-1a and then pushes the
// mix through two rounds of the splitmix64 finalizer, the same generator the
// simulation RNG (internal/sim) uses for state expansion. splitmix64 is a
// bijection on 64-bit integers, so distinct (base, key-hash) mixes can only
// collide if FNV collides on the keys themselves.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64 hashes a job key with FNV-1a.
func fnv64(key string) uint64 {
	var h uint64 = fnvOffset
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// splitmix64 is the splitmix64 output finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SeedFor derives the deterministic simulation seed for the job identified
// by key under the sweep's base seed.
func SeedFor(base uint64, key string) uint64 {
	return splitmix64(splitmix64(base ^ fnv64(key)))
}
