// Package rngbad misuses StreamSeed labels every way one package can: a
// computed label, an empty label, and a label reused within the package.
package rngbad

import "github.com/airindex/airindex/internal/sim"

func Streams(seed int64, shard int, name string) int64 {
	a := sim.StreamSeed(seed, shard, name) // line 8: computed label
	b := sim.StreamSeed(seed, shard, "")   // line 9: empty label
	c := sim.StreamSeed(seed, shard, "faults")
	d := sim.StreamSeed(seed, shard, "faults") // line 11: duplicate label
	return a + b + c + d
}
