// Package rngdup reuses the "faults" substream label that rngbad
// already claimed in another package. Each package alone is consistent;
// only a scan over every call site can see the collision.
package rngdup

import "github.com/airindex/airindex/internal/sim"

func Stream(seed int64, shard int) int64 {
	return sim.StreamSeed(seed, shard, "faults") // line 9: duplicate across packages
}
