// Package sim mirrors the production byte-clock for fixtures: the unit
// analyzers recognize sim.Time by its package-path suffix, and seedtaint
// recognizes the sanctioned RNG constructors the same way.
package sim

// Time is virtual time measured in bytes broadcast.
type Time int64

// RNG mirrors the production seeded generator.
type RNG struct{ state uint64 }

// NewRNG mirrors the production seeded constructor.
func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

// NewShardRNG mirrors the production shard-substream constructor.
func NewShardRNG(seed int64, shard int) *RNG {
	return &RNG{state: uint64(seed) + uint64(shard)}
}

// StreamSeed mirrors the production labeled-substream derivation.
func StreamSeed(seed int64, shard int, label string) int64 {
	return seed + int64(shard) + int64(len(label))
}
