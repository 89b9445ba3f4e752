package core

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/cohort"
)

// This file is the columnar cohort engine (Config.Engine ==
// EngineCohort): the batched counterpart of the event engine in
// engine.go, built to push 10⁶-client request populations through the
// unchanged scheme implementations. It runs under the same wave driver
// (Simulator.Run) — one round of RoundSize requests per still-active
// stream, merge, stopping rule — but each round is a cohort.Batch: the
// stream pre-draws the round's (arrival, key) pairs into columns in the
// precise RNG order the event engine would have used, advances every
// lane with a batched kernel (or the ordinary walkers, lane by lane, when
// per-stream fault state forces arrival order), and folds the result
// columns into the same shardAccum the driver merges. The engines
// therefore agree bit for bit at any shard count; the differential tests
// in cohort_test.go pin that.
//
// Its throughput comes from batching (closed-form access.Resolver
// kernels, inlined walk loops, client-arena reuse, bulk Welford/P²
// folds). Streams run concurrently like the event engine's, sharing only
// the immutable broadcast image; each stream owns its batch and clients.

// cohortShard is the cohort engine's stream: the shared stream state plus
// its batch arena.
type cohortShard struct {
	stream

	batch *cohort.Batch
	// reuse is the stream's rewindable client for the lane-ordered
	// walker paths; it stays nil when the scheme does not implement
	// access.Rewinder, in which case renew allocates fresh per call.
	reuse  access.Client
	curKey uint64
	renew  func() access.Client
}

// newCohortShard builds stream i of n for the cohort engine. newStream
// is the event engine's setup too, so the generated request stream is
// identical to the event engine's; the first arrival stays pending in
// next.
func (s *Simulator) newCohortShard(i, n int) *cohortShard {
	sh := &cohortShard{stream: s.newStream(i, n), batch: cohort.New()}
	// One renew closure per stream, reused by every restart of every
	// lane: the recovery walkers discard their old client reference
	// before asking for a new one, so handing back the same rewound
	// object is indistinguishable from a fresh allocation.
	sh.renew = func() access.Client {
		if rw, ok := sh.reuse.(access.Rewinder); ok {
			rw.Rewind(sh.curKey)
			return sh.reuse
		}
		c := s.bc.NewClient(sh.curKey)
		if _, ok := c.(access.Rewinder); ok {
			sh.reuse = c
		}
		return c
	}
	return sh
}

// round serves one round of the stream — RoundSize requests, or what is
// left of its budget — as a single batch. Only a full batch advances the
// round counter, matching the event engine's round boundary.
func (sh *cohortShard) round(s *Simulator) error {
	n := int(min(int64(s.cfg.RoundSize), sh.budget-sh.requests))
	s.cohortGenerate(sh, n)
	if err := s.cohortAdvance(sh); err != nil {
		return err
	}
	s.foldCohort(sh)
	if n == s.cfg.RoundSize {
		sh.rounds++
	}
	sh.done = sh.requests >= sh.budget
	return nil
}

// cohortGenerate pre-draws one round of requests into the batch columns.
// The per-request draw order matches the event engine's arrival handler
// — key first, then the exponential gap to the next arrival — with the
// already-pending arrival consumed as lane i's time. The final gap draw
// may not occur in the event engine when the run stops at this round's
// boundary; since the stream is never sampled again after a stop, the
// difference is unobservable.
func (s *Simulator) cohortGenerate(sh *cohortShard, n int) {
	b := sh.batch
	b.Reset(n)
	for i := 0; i < n; i++ {
		b.Arrival[i] = sh.next
		b.Key[i] = s.pickKey(&sh.stream)
		sh.next += sh.rng.Exponential(s.cfg.RequestMean)
	}
}

// primeCohortClients readies the Clients column for the stepped kernel:
// rewindable clients are reset in place (zero steady-state allocations),
// anything else is allocated fresh for its lane.
func (s *Simulator) primeCohortClients(b *cohort.Batch) {
	for i := 0; i < b.Len(); i++ {
		if rw, ok := b.Clients[i].(access.Rewinder); ok {
			rw.Rewind(b.Key[i])
			continue
		}
		b.Clients[i] = s.bc.NewClient(b.Key[i])
	}
}

// cohortAdvance resolves every lane of the current batch. Clean
// single-channel batches take the columnar kernels — the closed-form
// resolver when the scheme offers one, the inlined walk loop otherwise.
// Fault-injected and multichannel batches share mutable per-stream state
// (the corruption counter), so they walk lane by lane in arrival order
// through the exact entry points the event engine uses.
func (s *Simulator) cohortAdvance(sh *cohortShard) error {
	b := sh.batch
	if s.set == nil && sh.inj == nil {
		if resolver, ok := s.bc.(access.Resolver); ok && b.ResolveLanes(resolver) {
			return nil
		}
		s.primeCohortClients(b)
		if !b.AdvanceClean(s.bc.Channel(), 0) {
			return cohortFailErr(b)
		}
		return nil
	}
	return s.cohortWalkLanes(sh)
}

// cohortFailErr materializes a failed lane's error with the same message
// access.Walk would have returned, off the hot path.
func cohortFailErr(b *cohort.Batch) error {
	switch b.FailKind {
	case cohort.FailPastDoze:
		return fmt.Errorf("access: client dozed into the past: %d < %d", b.FailArg1, b.FailArg2)
	case cohort.FailBadStep:
		return fmt.Errorf("access: invalid step kind %d", b.FailArg1)
	default:
		return fmt.Errorf("access: query exceeded %d steps without terminating", b.FailArg1)
	}
}

// cohortWalkLanes drives each lane to completion in arrival order with
// the event engine's walkers, filling the result columns. Per-lane
// injector sequencing (StartRequest before the walk) matches runRequest,
// so the corruption stream lines up request for request.
func (s *Simulator) cohortWalkLanes(sh *cohortShard) error {
	b := sh.batch
	pol := s.recoverPolicy()
	for i := 0; i < b.Len(); i++ {
		sh.curKey = b.Key[i]
		arrival := b.Arrival[i]
		var r access.MultiResult
		var err error
		switch {
		case s.set != nil && sh.inj != nil:
			sh.inj.StartRequest()
			r, err = access.WalkRecoverMulti(s.set, sh.renew, arrival, sh.inj, pol, 0)
		case s.set != nil:
			r, err = access.WalkMulti(s.set, sh.renew(), arrival, 0)
		default: // sh.inj != nil: single-channel fault recovery
			sh.inj.StartRequest()
			var fr access.FaultyResult
			fr, err = access.WalkRecover(s.bc.Channel(), sh.renew, arrival, sh.inj, pol, 0)
			r = access.MultiResult{FaultyResult: fr}
		}
		if err != nil {
			return err
		}
		b.Access[i] = r.Access
		b.Tuning[i] = r.Tuning
		b.Probes[i] = r.Probes
		b.Found[i] = r.Found
		b.Restarts[i] = r.Restarts
		b.Wasted[i] = r.Wasted
		b.Unrecovered[i] = r.Unrecovered
		b.Switches[i] = r.Switches
		b.SwitchWait[i] = r.SwitchWait
		b.State[i] = cohort.LaneDone
	}
	return nil
}

// foldCohort folds the completed batch into the stream's accumulator.
// Scalar counters are order-free; the float columns go through the bulk
// Welford/P² folds, which append lane-by-lane in arrival order — the
// same per-estimator Add sequence the event engine produces, so the
// folded sample state is bit-identical. Each completed request counts as
// one engine event, matching the event engines' one-arrival-per-request
// accounting.
//
//airlint:hotpath
func (s *Simulator) foldCohort(sh *cohortShard) {
	b := sh.batch
	a := &sh.shardAccum
	n := b.Len()
	for i := 0; i < n; i++ {
		if b.Found[i] {
			a.found++
		} else {
			a.notFound++
		}
		a.restarts += int64(b.Restarts[i])
		a.wasted += int64(b.Wasted[i])
		if b.Unrecovered[i] {
			a.unrecovered++
		}
		a.switches += int64(b.Switches[i])
		a.switchWait += int64(b.SwitchWait[i])
		b.AccessF[i] = float64(b.Access[i])
		b.TuningF[i] = float64(b.Tuning[i])
		b.EnergyF[i] = float64(b.Tuning[i]) + s.cfg.DozePowerRatio*float64(b.Access[i]-b.Tuning[i])
		b.ProbesF[i] = float64(b.Probes[i])
	}
	a.requests += int64(n)
	a.events += int64(n)
	a.access.AddAll(b.AccessF)
	a.tuning.AddAll(b.TuningF)
	a.energy.AddAll(b.EnergyF)
	a.probes.AddAll(b.ProbesF)
	a.accessP95.AddAll(b.AccessF)
	a.accessP99.AddAll(b.AccessF)
	a.tuningP95.AddAll(b.TuningF)
	a.tuningP99.AddAll(b.TuningF)
}
