// Package seedbad launders nondeterministic seeds away from the
// construction site, through locals, struct fields and parameters;
// seedtaint's dataflow still traces them.
package seedbad

import (
	"time"

	"example.com/airlintfix/internal/sim"
)

type wrap struct{ v int64 }

// FromClock reroutes a wall-clock read through a local and a struct
// field before seeding: the run can never be replayed.
func FromClock() *sim.RNG {
	t := time.Now().UnixNano()
	w := wrap{v: t}
	return sim.NewRNG(w.v)
}

// FromNowhere seeds from a value with no path back to the seed plane.
func FromNowhere(names []string) *sim.RNG {
	n := len(names)
	return sim.NewRNG(int64(n))
}

// build hides the seed behind a parameter whose name does not mark it
// as part of the plane; the contract wants it visible.
func build(x int64) *sim.RNG {
	return sim.NewRNG(x)
}

// Clobber writes the wall clock into the seed plane itself.
func Clobber(cfg *wrapConfig) {
	cfg.Seed = time.Now().UnixNano()
}

type wrapConfig struct{ Seed int64 }
