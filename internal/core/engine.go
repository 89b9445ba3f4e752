package core

import (
	"sync"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/stats"
)

// This file is the run driver — one of the sanctioned concurrency sites
// in the repository (the others are the scenario compiler's
// internal/airql/parallel.go and the live daemon in internal/aircast;
// the airlint confinement analyzer rejects goroutines anywhere else).
//
// The paper's stopping rule (§4.1) runs the simulation in rounds of
// RoundSize requests and stops when the confidence half-width of the
// accumulated sample is small enough. Requests are independent processes
// over a deterministic periodic schedule, so rounds can run concurrently:
// each stream draws its arrival process from its own RNG substream
// against the shared immutable broadcast image. After every wave — one
// round per still-active stream — the driver merges the per-stream
// samples (parallel Welford for moments, weighted marker-CDF merge for
// the P² tails) and applies the stopping rule to the merged sample. The
// event engine (below) and the cohort engine (cohort.go) are two ways to
// serve one stream's round; the wave loop is the same for both.
//
// Determinism: a stream's state is a pure function of (Seed, shard) and
// the wave count, goroutines never touch another stream's state, and the
// merge walks streams in index order — so the Result is bit-identical for
// a given (Seed, Shards) pair regardless of GOMAXPROCS or scheduling.

// shardAccum is one request stream's result accumulator. Both engines
// fold completed requests into it in arrival order, so a merged Result
// depends only on the request streams, never on which engine produced
// them (the cohort differential tests pin exactly this).
type shardAccum struct {
	requests, found, notFound int64
	restarts                  int64
	wasted                    int64
	unrecovered               int64
	switches                  int64
	switchWait                int64
	rounds                    int
	events                    int64 // engine events attributed to this stream

	access, tuning, energy, probes stats.Sample
	accessP95, accessP99           *stats.Quantile
	tuningP95, tuningP99           *stats.Quantile
}

// newShardAccum returns an accumulator with live tail estimators.
func newShardAccum() shardAccum {
	return shardAccum{
		accessP95: stats.MustQuantile(0.95),
		accessP99: stats.MustQuantile(0.99),
		tuningP95: stats.MustQuantile(0.95),
		tuningP99: stats.MustQuantile(0.99),
	}
}

// addResult folds one completed request into the accumulator. Welford
// and P² updates are order-sensitive, so the field order here is part of
// the determinism contract; the cohort engine's bulk fold reproduces it.
//
//airlint:hotpath
func (a *shardAccum) addResult(r *access.MultiResult, dozeRatio float64) {
	a.requests++
	if r.Found {
		a.found++
	} else {
		a.notFound++
	}
	a.access.Add(float64(r.Access))
	a.tuning.Add(float64(r.Tuning))
	a.energy.Add(float64(r.Tuning) + dozeRatio*float64(r.Access-r.Tuning))
	a.probes.Add(float64(r.Probes))
	a.restarts += int64(r.Restarts)
	a.wasted += int64(r.Wasted)
	if r.Unrecovered {
		a.unrecovered++
	}
	a.switches += int64(r.Switches)
	a.switchWait += int64(r.SwitchWait)
	a.accessP95.Add(float64(r.Access))
	a.accessP99.Add(float64(r.Access))
	a.tuningP95.Add(float64(r.Tuning))
	a.tuningP99.Add(float64(r.Tuning))
}

// stream is one request stream's private slice of a run, common to both
// engines: its RNG substream, arrival skew, fault substream, budget and
// accumulator. A wave's goroutine touches exactly one stream; the wave
// barrier is the only synchronization.
type stream struct {
	rng    *sim.RNG
	zipf   func() int       // nil for the uniform workload
	inj    *faults.Injector // stream's fault substream; nil on a perfect channel
	budget int64            // request cap; stream budgets sum to MaxRequests
	next   sim.Time         // pending arrival; the event engine only queues the first one
	done   bool             // budget exhausted

	shardAccum
}

// base gives the wave driver the shared stream state of either engine's
// stream type.
func (st *stream) base() *stream { return st }

// newStream builds stream i of n. A single stream reuses the base seed
// directly, so a one-shard run keeps the request stream of runs made
// before sharding existed; multiple streams draw from SplitMix
// substreams. The first arrival is drawn before any key, the order the
// event engine's setup has always used.
func (s *Simulator) newStream(i, n int) stream {
	rng := sim.NewRNG(s.cfg.Seed)
	if n > 1 {
		rng = sim.NewShardRNG(s.cfg.Seed, i)
	}
	st := stream{
		rng:        rng,
		inj:        s.newInjector(i),
		budget:     int64(s.cfg.MaxRequests / n),
		shardAccum: newShardAccum(),
	}
	if i < s.cfg.MaxRequests%n {
		st.budget++
	}
	if s.cfg.ZipfS > 1 {
		st.zipf = rng.Zipf(s.cfg.ZipfS, s.ds.Len())
	}
	st.next = rng.Exponential(s.cfg.RequestMean)
	return st
}

// roundServer is one engine's way to advance a stream: round serves the
// stream's next round, or what is left of its budget, and marks the
// stream done once the budget is spent.
type roundServer interface {
	base() *stream
	round(s *Simulator) error
}

// Run executes the simulation until the accuracy controller is satisfied
// (both access-time and tuning-time samples within the configured
// confidence accuracy, and at least MinRequests served) or MaxRequests is
// reached.
//
// The run is max(Shards, 1) request streams advanced in waves. Each wave
// serves one round per still-active stream concurrently, then merges the
// streams in index order. The stopping rule only fires on a complete wave
// — every stream that started it finished a full round, so the merged
// sample is a whole number of rounds per stream — or on the cap exit,
// where the final wave may end mid-round but the sample is complete
// either way. Config.Engine picks how a stream serves a round: the event
// engine below, or the batched columnar engine (cohort.go), which
// reproduces the same Result bit for bit.
func (s *Simulator) Run() (*Result, error) {
	n := max(s.cfg.Shards, 1)
	streams := make([]roundServer, n)
	accs := make([]*shardAccum, n)
	for i := range streams {
		if s.cfg.useCohort() {
			streams[i] = s.newCohortShard(i, n)
		} else {
			streams[i] = s.newShardRunner(i, n)
		}
		accs[i] = &streams[i].base().shardAccum
	}
	startRounds := make([]int, n)
	errs := make([]error, n)
	for {
		var active []int
		for i, st := range streams {
			if !st.base().done {
				active = append(active, i)
				startRounds[i] = st.base().rounds
			}
		}
		var wg sync.WaitGroup
		for _, i := range active {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = streams[i].round(s)
			}()
		}
		wg.Wait()

		waveComplete := true
		for _, i := range active {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if streams[i].base().rounds == startRounds[i] {
				waveComplete = false
			}
		}
		merged := s.mergeShards(accs)
		// Stream budgets sum to MaxRequests, so the cap exit fires in the
		// wave that exhausts the last stream.
		capped := merged.Requests >= int64(s.cfg.MaxRequests)
		if !waveComplete && !capped {
			continue
		}
		merged.Converged = s.accuracyMet(merged) && merged.Requests >= int64(s.cfg.MinRequests)
		if merged.Converged || capped {
			return merged, nil
		}
	}
}

// shardRunner is the event engine's stream: its own event loop over the
// stream's arrival process.
type shardRunner struct {
	stream
	eng     *sim.Simulator
	inRound int   // requests served since the last round boundary
	walkErr error // request-process failure; stops the event loop
}

// newShardRunner builds stream i of n for the event engine and queues its
// first arrival.
func (s *Simulator) newShardRunner(i, n int) *shardRunner {
	sh := &shardRunner{stream: s.newStream(i, n), eng: sim.New()}
	sh.eng.After(sh.next, s.shardArrival(sh))
	return sh
}

// round runs the stream's event loop until the arrival callback stops it
// at a round boundary or the budget drains the queue.
func (sh *shardRunner) round(*Simulator) error {
	if err := sh.eng.Run(0); err != nil && err != sim.ErrStopped {
		return err
	}
	sh.events = sh.eng.Processed
	return sh.walkErr
}

// shardArrival returns the stream's self-rescheduling arrival callback:
// request, accumulate, round boundary, budget check, next draw. At a
// round boundary it schedules the next arrival and then stops the loop,
// leaving the pending arrival queued for the next wave.
//
//airlint:hotpath
func (s *Simulator) shardArrival(sh *shardRunner) func(*sim.Simulator) {
	//airlint:allow escapecheck one arrival closure per shard, heap-allocated at setup and reused every event
	var arrive func(*sim.Simulator)
	//airlint:allow escapecheck one arrival closure per shard, heap-allocated at setup and reused every event
	arrive = func(eng *sim.Simulator) { //airlint:allow hotalloc one arrival closure per shard, allocated at setup and reused every event
		key := s.pickKey(&sh.stream)
		r, err := s.runRequest(&sh.stream, key, eng.Now())
		if err != nil {
			sh.walkErr = err
			eng.Stop()
			return
		}
		sh.addResult(&r, s.cfg.DozePowerRatio)

		boundary := false
		sh.inRound++
		if sh.inRound >= s.cfg.RoundSize {
			sh.inRound = 0
			sh.rounds++
			boundary = true
		}
		if sh.requests >= sh.budget {
			sh.done = true
			return // no reschedule; the queue drains and the wave ends
		}
		eng.After(sh.rng.Exponential(s.cfg.RequestMean), arrive)
		if boundary {
			eng.Stop()
		}
	}
	return arrive
}

// mergeShards folds every stream's accumulators, in index order, into a
// fresh Result. Rebuilding from scratch at each wave barrier keeps the
// merged state a pure function of the per-stream states.
func (s *Simulator) mergeShards(accs []*shardAccum) *Result {
	res := &Result{
		Scheme:     s.cfg.Scheme,
		CycleBytes: s.bc.Channel().CycleLen(),
		Params:     s.resultParams(),
	}
	a95 := stats.MustQuantile(0.95)
	a99 := stats.MustQuantile(0.99)
	t95 := stats.MustQuantile(0.95)
	t99 := stats.MustQuantile(0.99)
	for _, sh := range accs {
		res.Requests += sh.requests
		res.Found += sh.found
		res.NotFound += sh.notFound
		res.Restarts += sh.restarts
		res.WastedBytes += sh.wasted
		res.Unrecovered += sh.unrecovered
		res.Switches += sh.switches
		res.SwitchWaitBytes += sh.switchWait
		res.Rounds += sh.rounds
		res.Events += sh.events
		res.Access.Merge(&sh.access)
		res.Tuning.Merge(&sh.tuning)
		res.Energy.Merge(&sh.energy)
		res.Probes.Merge(&sh.probes)
		a95.Merge(sh.accessP95)
		a99.Merge(sh.accessP99)
		t95.Merge(sh.tuningP95)
		t99.Merge(sh.tuningP99)
	}
	res.AccessP95 = a95.Value()
	res.AccessP99 = a99.Value()
	res.TuningP95 = t95.Value()
	res.TuningP99 = t99.Value()
	return res
}
