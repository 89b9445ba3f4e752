package sim

import (
	"math"
	"math/rand"
)

// RNG wraps the seeded random source shared by a simulation run. All
// stochastic behaviour in the testbed (request arrival times, key choices,
// availability draws) flows through a single RNG so that a run is exactly
// reproducible from its seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// SplitMix derives the seed of the shard-th RNG substream from a base
// seed with the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014):
// the shard index advances the golden-gamma counter and the output mix
// decorrelates even adjacent shards. Substreams are what let the
// round-sharded engine give every shard its own arrival process while a
// run stays a pure function of (seed, shards).
func SplitMix(seed int64, shard int) int64 {
	x := uint64(seed) + uint64(shard+1)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}

// NewShardRNG returns the deterministic generator for one shard's
// substream: NewRNG(SplitMix(seed, shard)).
func NewShardRNG(seed int64, shard int) *RNG {
	return NewRNG(SplitMix(seed, shard))
}

// StreamSeed derives the seed of a named per-shard substream:
// splitmix(seed, shard, label). The label is folded into the base seed
// with FNV-1a before the SplitMix64 shard derivation, so differently
// named streams of the same (seed, shard) pair are decorrelated from each
// other and from the unnamed arrival stream. The fault-injection layer
// draws from splitmix(seed, shard, "faults") so that enabling faults
// never perturbs the arrival process (DESIGN.md §7).
func StreamSeed(seed int64, shard int, label string) int64 {
	return SplitMix(int64(uint64(seed)^FNV64a(label)), shard)
}

// FNV64a returns the 64-bit FNV-1a hash of b. Stream labels, signature
// fields and the hashing scheme's keys all hash through it.
//
//airlint:hotpath
func FNV64a[B string | []byte](b B) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// Exponential draws an exponentially distributed duration with the given
// mean, rounded up to at least one time unit. The paper's request
// generation process "follows exponential distribution" (§3).
func (g *RNG) Exponential(mean float64) Time {
	if mean <= 0 {
		return 1
	}
	d := g.r.ExpFloat64() * mean
	if d <= 1 {
		return 1
	}
	if d > math.MaxInt64/2 {
		return Time(math.MaxInt64 / 2)
	}
	return Time(math.Ceil(d))
}

// Intn draws a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n draws a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 draws a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Zipf returns a generator of Zipf-distributed ranks in [0, n) with
// exponent s > 1 (smaller ranks are hotter). Skewed request workloads use
// it to model popularity.
func (g *RNG) Zipf(s float64, n int) func() int {
	z := rand.NewZipf(g.r, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
