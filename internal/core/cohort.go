package core

import (
	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/cohort"
)

// This file serves one stream's round as a cohort.Batch: the stream
// pre-draws the round's (arrival, key) pairs into columns, advances every
// lane with a batched kernel (or the walkers, lane by lane, when
// per-stream fault state forces arrival order), and folds the result
// columns into the stream's accumulator. Each lane is the paper's
// per-request process: one walk of the broadcast cycle on the byte-clock,
// starting at its arrival.
//
// Its throughput comes from batching (closed-form access.Resolver
// kernels, client-arena reuse, bulk Welford/P² folds). Streams run
// concurrently, sharing only the immutable broadcast image; each stream
// owns its batch and clients.

// round serves one round of the stream — RoundSize requests, or what is
// left of its budget — as a single batch. Only a full batch advances the
// round counter.
func (s *Simulator) round(st *stream) error {
	n := int(min(int64(s.cfg.RoundSize), st.budget-st.requests))
	s.cohortGenerate(st, n)
	if err := s.cohortAdvance(st); err != nil {
		return err
	}
	s.foldCohort(st)
	if n == s.cfg.RoundSize {
		st.rounds++
	}
	st.done = st.requests >= st.budget
	return nil
}

// cohortGenerate pre-draws one round of requests into the batch columns.
// Per request it draws the key first, then the exponential gap to the
// next arrival, with the already-pending arrival consumed as lane i's
// time. The walkers consume no arrival RNG, so this is the order a
// one-request-at-a-time loop draws in; the gap drawn after a stream's
// last request is never used.
func (s *Simulator) cohortGenerate(sh *stream, n int) {
	b := sh.batch
	b.Reset(n)
	for i := 0; i < n; i++ {
		b.Arrival[i] = sh.next
		b.Key[i] = s.pickKey(sh)
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
// resolver when the scheme offers one, one access.Walk per lane otherwise.
// Fault-injected and multichannel batches share mutable per-stream state
// (the corruption counter), so they walk lane by lane in arrival order.
func (s *Simulator) cohortAdvance(sh *stream) error {
	b := sh.batch
	if s.set == nil && sh.inj == nil {
		if resolver, ok := s.bc.(access.Resolver); ok && b.ResolveLanes(resolver) {
			return nil
		}
		s.primeCohortClients(b)
		if !b.AdvanceClean(s.bc.Channel(), 0) {
			return b.Err
		}
		return nil
	}
	return s.cohortWalkLanes(sh)
}

// cohortWalkLanes drives each lane to completion in arrival order through
// Simulator.walk, filling the result columns, so the corruption stream
// lines up request for request.
func (s *Simulator) cohortWalkLanes(sh *stream) error {
	b := sh.batch
	for i := 0; i < b.Len(); i++ {
		sh.curKey = b.Key[i]
		r, err := s.walk(sh, sh.renew, b.Arrival[i])
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
// same per-estimator Add sequence as folding one request at a time, so
// the folded sample state is bit-identical.
//
//airlint:hotpath
func (s *Simulator) foldCohort(sh *stream) {
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
	a.access.AddAll(b.AccessF)
	a.tuning.AddAll(b.TuningF)
	a.energy.AddAll(b.EnergyF)
	a.probes.AddAll(b.ProbesF)
	a.accessP95.AddAll(b.AccessF)
	a.accessP99.AddAll(b.AccessF)
	a.tuningP95.AddAll(b.TuningF)
	a.tuningP99.AddAll(b.TuningF)
}
