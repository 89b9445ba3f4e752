package core

import (
	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/sim"
)

// This file serves one stream's round: one loop over the round's
// requests in arrival order. Each request is the paper's per-request
// process, one walk of the broadcast cycle on the byte-clock from its
// arrival. A lane either resolves, when the run's closed-form
// access.Resolver (chosen once in NewOn) answers it, or walks through
// Simulator.walk on the run's geometry, with or without faults, using
// the stream's one rewindable client. Streams run concurrently, sharing
// only the immutable broadcast image.

// round serves one round of the stream — RoundSize requests, or what is
// left of its budget. Per request it draws the key first, then the
// exponential gap to the next arrival, with the already-pending arrival
// consumed as the lane's time: lanes consume no arrival RNG, so this is
// the order a one-request-at-a-time loop draws in, and the gap drawn
// after a stream's last request is never used. The float columns then go
// through the bulk folds, which append lane by lane in arrival order —
// the same per-estimator Add sequence as folding one request at a time,
// so the folded sample state is bit-identical. Only a full round
// advances the round counter.
//
//airlint:hotpath
func (s *Simulator) round(st *stream) error {
	n := int(min(int64(s.cfg.RoundSize), st.budget-st.requests))
	for i := 0; i < n; i++ {
		arrival := st.next
		st.curKey = s.pickKey(st)
		st.next += st.rng.Exponential(s.cfg.RequestMean)
		if err := s.lane(st, i, arrival); err != nil {
			return err
		}
	}
	a := &st.shardAccum
	accessF, tuningF := st.accessF[:n], st.tuningF[:n]
	a.access.AddAll(accessF)
	a.tuning.AddAll(tuningF)
	a.energy.AddAll(st.energyF[:n])
	a.probes.AddAll(st.probesF[:n])
	a.accessP95.AddAll(accessF)
	a.accessP99.AddAll(accessF)
	a.tuningP95.AddAll(tuningF)
	a.tuningP99.AddAll(tuningF)
	if n == s.cfg.RoundSize {
		st.rounds++
	}
	st.done = st.requests >= st.budget
	return nil
}

// lane serves request i of the round, for key st.curKey arriving at
// arrival: through the run's resolver when it answers, through
// Simulator.walk otherwise. A resolver declines per broadcast, not per
// key, and its bit-identity obligation (access.Resolver) makes the two
// interchangeable. The counters fold into the stream's accumulator here;
// the float samples land in lane i of the round columns.
//
//airlint:hotpath
func (s *Simulator) lane(st *stream, i int, arrival sim.Time) error {
	var r access.MultiResult
	ok := false
	if s.resolver != nil {
		r.Result, ok = s.resolver.Resolve(st.curKey, arrival)
	}
	if !ok {
		var err error
		if r, err = s.walk(st, st.renew, arrival); err != nil {
			return err
		}
	}
	a := &st.shardAccum
	a.requests++
	if r.Found {
		a.found++
	} else {
		a.notFound++
	}
	a.restarts += int64(r.Restarts)
	a.wasted += int64(r.Wasted)
	if r.Unrecovered {
		a.unrecovered++
	}
	a.switches += int64(r.Switches)
	a.switchWait += int64(r.SwitchWait)
	st.accessF[i] = float64(r.Access)
	st.tuningF[i] = float64(r.Tuning)
	st.energyF[i] = float64(r.Tuning) + s.cfg.DozePowerRatio*float64(r.Access-r.Tuning)
	st.probesF[i] = float64(r.Probes)
	return nil
}
