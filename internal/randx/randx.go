// Package randx provides the deterministic pseudo-random generator used by
// every benchmark and input generator in the suite. Reproducibility is a
// core requirement of the paper's methodology (benchmarks must be
// regenerable bit-for-bit from instructions), so generators take explicit
// seeds and use this fixed algorithm (splitmix64-seeded xoshiro256**)
// rather than math/rand, whose stream is not guaranteed across releases.
package randx

import "math/bits"

// Rand is a deterministic xoshiro256** generator. Not safe for concurrent
// use; give each goroutine its own, forked via Fork.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent generator, so sub-generators (one per
// pattern, one per trial) don't perturb each other's streams when code is
// reordered.
func (r *Rand) Fork() *Rand { return New(r.Uint64() ^ 0xa5a5a5a5deadbeef) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// IntRange returns a uniform int in [lo, hi] inclusive.
func (r *Rand) IntRange(lo, hi int) int {
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Byte returns a uniform random byte.
func (r *Rand) Byte() byte { return byte(r.Uint64()) }

// Bytes fills a fresh n-byte slice with random bytes.
func (r *Rand) Bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.Byte()
	}
	return out
}

// Pick returns a random element of the (non-empty) slice.
func Pick[T any](r *Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// Shuffle permutes xs in place.
func Shuffle[T any](r *Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
