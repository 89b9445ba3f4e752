package access

import (
	"github.com/airindex/airindex/internal/sim"
)

// This file defines the optional capabilities a Broadcast or Client may
// implement to let the request engine's batch kernels (internal/cohort)
// advance huge request populations cheaply. Both are pure optimizations:
// the engine probes for them with type assertions and falls back to
// the ordinary NewClient/Walk machinery, and every capability carries a
// bit-identity obligation that the differential tests enforce.

// Resolver is an optional Broadcast capability: answer a clean,
// single-channel query in closed form. Resolve must return exactly the
// Result that Walk(Channel(), NewClient(key), arrival, 0) would produce
// — same Access, Tuning, Found and Probes — or report ok=false to make
// the caller fall back to stepping the client state machine.
//
// Serial-scan schemes implement it with occurrence arithmetic over their
// uniform-bucket cycles: a scan that Walk steps through in O(probes)
// interface calls collapses to O(1) (flat) or O(log occurrences) (bdisk)
// integer math, or to an AND-and-popcount over bit-sliced signature
// columns (simple signature), which is what lets a 10⁶-request run
// finish in seconds.
// The capability is
// only consulted on perfect single-channel runs; faults and
// multichannel allocations always walk.
type Resolver interface {
	Resolve(key uint64, arrival sim.Time) (Result, bool)
}

// Rewinder is an optional Client capability: reset the protocol state
// machine to its initial state for a new key, so a long-lived engine
// can reuse one client allocation across millions of requests. After
// c.Rewind(key), c must behave exactly like a fresh NewClient(key) —
// the engine's client-arena reuse and the recovery walkers' restart
// path both rely on that equivalence.
type Rewinder interface {
	Rewind(key uint64)
}
