// Package rngbad builds a math/rand source directly inside a
// simulation-critical package. The seed is a proper parameter, yet the
// source bypasses the SplitMix decorrelation of sim.NewRNG,
// sim.NewShardRNG and sim.StreamSeed, so determinism flags the
// construction. (StreamSeed label misuse is not an airlint rule: the
// sim package's TestStreamSeedLabelsUnique scans every call site.)
package rngbad

import "math/rand"

// Draw takes its seed correctly but constructs its own source.
func Draw(seed int64) int64 {
	src := rand.NewSource(seed) // line 13: direct construction
	return src.Int63()
}
