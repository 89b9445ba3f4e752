// Package cohort implements a struct-of-arrays ("SoA") request batch:
// one request occupies lane i of every column, and two kernels advance
// a whole cohort of requests against the immutable broadcast cycle in
// one call:
//
//   - ResolveLanes, when the broadcast implements access.Resolver:
//     the whole walk collapses to closed-form arithmetic per lane
//     (serial-scan schemes answer in O(1)–O(log) integer math, simple
//     signature by ANDing and counting its bit-sliced signature columns);
//   - AdvanceClean, the stepped kernel: access.Walk once per lane,
//     driving the per-lane protocol state machines (the Clients column)
//     with no closures or allocations on the hot path.
//
// The request engine (internal/core) does not use this package: it
// serves each request in one loop that resolves or walks lane by lane.
// The committed benchmark's probes (bench/probes.go) still time these
// kernels against access.Walk, so the package stays, with its tests and
// the FuzzResolverMatchesWalk target, until that benchmark may change.
//
// Lanes of a clean single-channel batch share no mutable state — the
// channel is immutable and each client is private to its lane — so the
// kernels may process lanes in any order; they use lane-major order
// (each lane to completion), which equals arrival order.
//
// The Batch is an arena: Reset reslices the columns for the next round
// without freeing, and the Clients column persists across rounds so
// rewindable schemes (access.Rewinder) reuse one client allocation per
// lane. Steady-state batch advance performs zero heap allocations (see
// alloc_test.go).
package cohort

import (
	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// LaneState tags one lane's lifecycle within a batch.
type LaneState uint8

const (
	// LanePending marks a generated request the kernels have not finished.
	LanePending LaneState = iota
	// LaneDone marks a lane whose result columns are valid.
	LaneDone
	// LaneFailed marks a lane whose walk violated the protocol contract;
	// the batch's FailLane and Err fields identify the failure.
	LaneFailed
)

// Batch is the struct-of-arrays state for one cohort of requests. All
// column slices share a common length (Len); lane i of every column
// belongs to request i, in arrival order.
type Batch struct {
	// Arrival is the request's arrival time on the byte-clock.
	Arrival []sim.Time
	// Key is the requested record key.
	Key []uint64

	// State is the per-lane lifecycle tag. Only the kernels below set
	// it, and only the benchmark's probes read it.
	State []LaneState
	// Clients holds each lane's protocol state machine for the stepped
	// kernel. The column persists across Reset so that rewindable
	// clients are reused; the caller (the benchmark's probes) primes it
	// before AdvanceClean.
	Clients []access.Client

	// Result columns, valid once State is LaneDone.
	Access []units.ByteCount
	Tuning []units.ByteCount
	Probes []int
	Found  []bool
	// Fault/multichannel accounting columns; the clean kernels leave
	// them zero.
	Restarts    []int
	Wasted      []units.ByteCount
	Unrecovered []bool
	Switches    []int
	SwitchWait  []units.ByteCount

	// AccessF/TuningF/EnergyF/ProbesF are float scratch columns for a
	// bulk stats fold (stats.Sample.AddAll), sized with the batch.
	AccessF, TuningF, EnergyF, ProbesF []float64

	// FailLane and Err describe the first failed lane when AdvanceClean
	// aborts: its index and the walker's error. The engine never reads
	// them; a walk error reaches Simulator.Run directly.
	FailLane int
	Err      error
}

// New returns an empty batch arena.
func New() *Batch { return &Batch{} }

// Len returns the number of lanes in the current batch.
func (b *Batch) Len() int { return len(b.Arrival) }

// Reset prepares the arena for a batch of n lanes: columns are resliced
// (growing capacity only when needed), result and state columns are
// zeroed, and the Clients column keeps its existing entries so they can
// be rewound instead of reallocated.
func (b *Batch) Reset(n int) {
	if cap(b.Arrival) < n {
		b.grow(n)
	}
	b.Arrival = b.Arrival[:n]
	b.Key = b.Key[:n]
	b.State = b.State[:n]
	b.Clients = b.Clients[:n]
	b.Access = b.Access[:n]
	b.Tuning = b.Tuning[:n]
	b.Probes = b.Probes[:n]
	b.Found = b.Found[:n]
	b.Restarts = b.Restarts[:n]
	b.Wasted = b.Wasted[:n]
	b.Unrecovered = b.Unrecovered[:n]
	b.Switches = b.Switches[:n]
	b.SwitchWait = b.SwitchWait[:n]
	b.AccessF = b.AccessF[:n]
	b.TuningF = b.TuningF[:n]
	b.EnergyF = b.EnergyF[:n]
	b.ProbesF = b.ProbesF[:n]
	for i := 0; i < n; i++ {
		b.State[i] = LanePending
		b.Access[i] = 0
		b.Tuning[i] = 0
		b.Probes[i] = 0
		b.Found[i] = false
		b.Restarts[i] = 0
		b.Wasted[i] = 0
		b.Unrecovered[i] = false
		b.Switches[i] = 0
		b.SwitchWait[i] = 0
	}
	b.FailLane = -1
	b.Err = nil
}

// grow reallocates every column to capacity n, copying the Clients
// column (the only one whose old contents outlive a Reset).
func (b *Batch) grow(n int) {
	clients := make([]access.Client, n)
	copy(clients, b.Clients)
	b.Clients = clients
	b.Arrival = make([]sim.Time, n)
	b.Key = make([]uint64, n)
	b.State = make([]LaneState, n)
	b.Access = make([]units.ByteCount, n)
	b.Tuning = make([]units.ByteCount, n)
	b.Probes = make([]int, n)
	b.Found = make([]bool, n)
	b.Restarts = make([]int, n)
	b.Wasted = make([]units.ByteCount, n)
	b.Unrecovered = make([]bool, n)
	b.Switches = make([]int, n)
	b.SwitchWait = make([]units.ByteCount, n)
	b.AccessF = make([]float64, n)
	b.TuningF = make([]float64, n)
	b.EnergyF = make([]float64, n)
	b.ProbesF = make([]float64, n)
}

// ResolveLanes answers every pending lane through the broadcast's
// closed-form resolver. It returns false (leaving the remaining lanes
// pending) as soon as the resolver declines a query, so the caller can
// fall back to the stepped kernel; lanes already resolved stay LaneDone
// and are skipped there. The resolver's bit-identity obligation
// (access.Resolver) makes the two kernels interchangeable per lane.
// Only the benchmark's probes call it; the request engine calls the
// resolver lane by lane itself.
//
//airlint:hotpath
func (b *Batch) ResolveLanes(r access.Resolver) bool {
	for i := 0; i < len(b.Arrival); i++ {
		if b.State[i] != LanePending {
			continue
		}
		res, ok := r.Resolve(b.Key[i], b.Arrival[i])
		if !ok {
			return false
		}
		b.Access[i] = res.Access
		b.Tuning[i] = res.Tuning
		b.Probes[i] = res.Probes
		b.Found[i] = res.Found
		b.State[i] = LaneDone
	}
	return true
}

// AdvanceClean runs every pending lane's walk to completion against a
// perfect single channel, one access.Walk per lane over the Clients
// column. maxSteps <= 0 selects access.DefaultMaxSteps. It returns false
// if a lane failed, with FailLane and Err set and later lanes left
// pending (lanes are independent, and the run stops on the first walk
// error anyway). Only the benchmark's probes call it; the request
// engine walks its lanes through the recovery walkers.
//
//airlint:hotpath
func (b *Batch) AdvanceClean(ch *channel.Channel, maxSteps int) bool {
	for i := 0; i < len(b.Arrival); i++ {
		if b.State[i] != LanePending {
			continue
		}
		r, err := access.Walk(ch, b.Clients[i], b.Arrival[i], maxSteps)
		b.Access[i] = r.Access
		b.Tuning[i] = r.Tuning
		b.Probes[i] = r.Probes
		b.Found[i] = r.Found
		if err != nil {
			b.State[i] = LaneFailed
			b.FailLane = i
			b.Err = err
			return false
		}
		b.State[i] = LaneDone
	}
	return true
}
