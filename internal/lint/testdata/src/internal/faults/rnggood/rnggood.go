// Package rnggood derives every substream through the sanctioned sim
// constructors, which is not direct math/rand construction.
package rnggood

import "example.com/airlintfix/internal/sim"

func Streams(seed int64, shard int) int64 {
	rng := sim.NewShardRNG(seed, shard)
	_ = rng
	a := sim.StreamSeed(seed, shard, "arrivals")
	return a + sim.StreamSeed(seed, shard, "faults")
}
