// Package seedgood launders its seed through locals, struct fields and
// a same-package helper return — patterns a call-site-literal check
// cannot follow but that seedtaint's dataflow traces back to the seed
// plane, so nothing here is a finding.
package seedgood

import "example.com/airlintfix/internal/sim"

// Config mirrors the production config's seed plane.
type Config struct {
	Seed int64
	Name string
}

// runner caches the seed in a field whose name says nothing about
// seeds; only the assignment ties it to the plane.
type runner struct {
	base  int64
	cache int64
}

// Build reroutes the shard RNG seed through an intermediate struct
// field and a helper return before construction.
func Build(cfg Config, shard int) *sim.RNG {
	r := runner{base: cfg.Seed}
	d := carry(r.base)
	r.cache = sim.StreamSeed(d, shard, "seedgood-build")
	return sim.NewRNG(r.cache)
}

// carry is the same-package launder: its summary maps the result back
// to whatever the caller passed.
func carry(x int64) int64 {
	y := x + 1
	return y - 1
}

// Reseed writes a derived value back into the seed plane; deriving it
// from the plane itself is allowed.
func Reseed(cfg *Config, shard int) {
	cfg.Seed = sim.StreamSeed(cfg.Seed, shard, "seedgood-reseed")
}
