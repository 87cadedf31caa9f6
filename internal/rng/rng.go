// Package rng is the search layer's pseudo-random number generator
// (RNG layout v2): a counter-based SplitMix64 generator with cheap,
// key-derived stream splitting.
//
// A single shared generator makes every draw order-dependent: a child's
// genes would depend on how many draws every earlier child consumed. A
// splittable counter-based PRNG removes the shared state entirely — each
// unit of work derives its own independent stream from a stable label
// (for MAGMA: the (generation, child-slot) pair), so a child's genes
// depend on its label alone and the order of breeding cannot move a
// result.
//
// Construction. A Stream is a key (its identity — the hash of its
// derivation path) plus a draw counter; draw i outputs
// mix(key + (i+1)*gamma), the SplitMix64 sequence seeded at the key.
// Derive/At hash labels into the key with the same mixer, so distinct
// derivation paths yield statistically independent sequences (SplitMix64
// passes BigCrush; distinct keys are independent streams by design of
// the gamma/mix construction — Steele, Lea & Flood, OOPSLA 2014).
//
// Streams are values: copying a Stream forks it at its current
// position, and deriving allocates nothing. A Stream is not safe for
// concurrent use — derive one per goroutine instead of sharing.
package rng

import "math"

const (
	// gamma is SplitMix64's golden-gamma counter increment.
	gamma = 0x9e3779b97f4a7c15
	// layoutV2 salts every root key. It versions the seed→stream
	// mapping: bumping it (with the layout notes in DESIGN.md) is the
	// deliberate way to break seed compatibility.
	layoutV2 = 0x7c2ff0ab45b19d63
	// Layout is the RNG layout version number (v2: splittable
	// counter-based streams, PR 5). Durable artifacts that depend on the
	// seed→result mapping — solver snapshots — record it in their
	// headers so a layout bump invalidates them instead of silently
	// mixing incompatible state.
	Layout = 2
)

// mix is the SplitMix64 output permutation (fmix64 finalizer family).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fold absorbs one derivation label into a key. The label is mixed
// before the xor so small structured labels (0, 1, 2, ...) land far
// apart, and the result is mixed again so fold chains hash the whole
// derivation path, not just its last element.
func fold(key, label uint64) uint64 {
	return mix(key ^ mix(label+gamma))
}

// Stream is one independent PRNG stream. The zero value is a valid
// stream (the v2 stream of seed 0's empty derivation path is NOT the
// zero value — always start from New).
type Stream struct {
	key uint64 // stream identity: hash of (seed, derivation path)
	ctr uint64 // draws consumed
}

// New returns the root stream of a seed under RNG layout v2. Equal
// seeds yield identical streams; every derived stream is a pure
// function of (seed, derivation path).
func New(seed int64) *Stream {
	return &Stream{key: fold(layoutV2, uint64(seed))}
}

// Derive returns the independent child stream named by one label,
// starting at its beginning. Deriving does not consume draws from or
// otherwise perturb the receiver; the same (receiver key, label) always
// yields the same stream.
func (s *Stream) Derive(label uint64) Stream {
	return Stream{key: fold(s.key, label)}
}

// At returns the independent stream of one (generation, slot) work
// cell — the two-label form of Derive used by the variation pipeline.
// Allocation-free.
func (s *Stream) At(gen, slot uint64) Stream {
	return Stream{key: fold(fold(s.key, gen), slot)}
}

// Uint64 draws the next 64 uniform bits.
func (s *Stream) Uint64() uint64 {
	s.ctr++
	return mix(s.key + s.ctr*gamma)
}

// Float64 draws uniformly from [0, 1) with 53 bits of precision (the
// same construction math/rand uses over a Source64).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn draws uniformly from [0, n). It panics if n <= 0. The modulo
// reduction carries a bias of at most n/2^64 — immaterial at the
// problem sizes here (n is a population, core or job count), and the
// determinism contract cares about reproducibility, not perfect
// uniformity.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63 draws a non-negative int64 (for callers ported from math/rand).
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// NormFloat64 draws a standard normal via the Marsaglia polar method.
// Unlike math/rand's ziggurat it keeps no spare-value state, so a
// copied Stream and its original produce identical sequences from the
// copy point — the property the splitting contract relies on.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
