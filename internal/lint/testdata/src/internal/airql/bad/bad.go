// Package bad proves the scenario compiler sits inside the determinism
// scope, construction rule included: a wall-clock read while assembling
// a table, or an RNG built outside the sanctioned constructors, would
// break the byte-identical regeneration gate.
package bad

import (
	"math/rand"
	"time"
)

func Stamp() int64 {
	return time.Now().UnixNano() // line 13: wall clock
}

func Draw(seed int64) int64 {
	src := rand.NewSource(seed) // line 17: direct construction
	return src.Int63()
}
