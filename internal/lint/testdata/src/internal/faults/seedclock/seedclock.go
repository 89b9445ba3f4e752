// Package seedclock seeds each sanctioned RNG constructor straight from
// the wall clock, inside the call's own argument list. seedtaint finds
// no path from any of these seeds back to the seed plane; determinism
// co-reports the raw clock reads.
package seedclock

import (
	"time"

	"example.com/airlintfix/internal/sim"
)

func Streams(shard int) []any {
	a := sim.NewRNG(time.Now().UnixNano())                         // line 14
	b := sim.NewShardRNG(time.Now().Unix(), shard)                 // line 15
	c := sim.StreamSeed(time.Now().UnixNano(), shard, "seedclock") // line 16
	return []any{a, b, c}
}
