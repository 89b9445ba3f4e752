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
// the P² tails) and applies the stopping rule to the merged sample. A
// stream serves its round in one loop over its requests, each of which
// resolves in closed form or walks (cohort.go).
//
// Determinism: a stream's state is a pure function of (Seed, shard) and
// the wave count, goroutines never touch another stream's state, and the
// merge walks streams in index order — so the Result is bit-identical for
// a given (Seed, Shards) pair regardless of GOMAXPROCS or scheduling.

// shardAccum is one request stream's result accumulator. Completed
// requests are folded into it in arrival order, so a merged Result
// depends only on the request streams.
type shardAccum struct {
	requests, found, notFound int64
	restarts                  int64
	wasted                    int64
	unrecovered               int64
	switches                  int64
	switchWait                int64
	rounds                    int

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

// stream is one request stream's private slice of a run: its RNG
// substream, arrival skew, fault substream, budget, accumulator, round
// columns and client. A wave's goroutine touches exactly one stream; the
// wave barrier is the only synchronization.
type stream struct {
	rng    *sim.RNG
	zipf   func() int       // nil for the uniform workload
	inj    *faults.Injector // stream's fault substream; nil on a perfect channel
	budget int64            // request cap; stream budgets sum to MaxRequests
	next   sim.Time         // pending arrival, drawn before the round that serves it
	done   bool             // budget exhausted

	shardAccum

	// accessF, tuningF, energyF and probesF hold the round's float
	// samples, lane i for the round's request i, for the bulk folds.
	accessF, tuningF, energyF, probesF []float64
	// reuse is the stream's one client, rewound for every walked lane
	// and restart; it stays nil when the scheme does not implement
	// access.Rewinder, in which case renew allocates fresh per call.
	reuse  access.Client
	curKey uint64 // the key of the lane being served
	renew  func() access.Client
}

// newStream builds stream i of n. A single stream reuses the base seed
// directly, so a one-shard run keeps the request stream of runs made
// before sharding existed; multiple streams draw from SplitMix
// substreams. The first arrival is drawn before any key.
func (s *Simulator) newStream(i, n int) *stream {
	rng := sim.NewRNG(s.cfg.Seed)
	if n > 1 {
		rng = sim.NewShardRNG(s.cfg.Seed, i)
	}
	st := &stream{
		rng:        rng,
		inj:        s.newInjector(i),
		budget:     int64(s.cfg.MaxRequests / n),
		shardAccum: newShardAccum(),
	}
	if i < s.cfg.MaxRequests%n {
		st.budget++
	}
	m := int(min(int64(s.cfg.RoundSize), st.budget))
	f := make([]float64, 4*m)
	st.accessF, st.tuningF, st.energyF, st.probesF = f[:m], f[m:2*m], f[2*m:3*m], f[3*m:]
	if s.cfg.ZipfS > 1 {
		st.zipf = rng.Zipf(s.cfg.ZipfS, s.ds.Len())
	}
	st.next = rng.Exponential(s.cfg.RequestMean)
	// One renew closure per stream, reused by every restart of every
	// lane: the recovery walkers discard their old client reference
	// before asking for a new one, so handing back the same rewound
	// object is indistinguishable from a fresh allocation.
	st.renew = func() access.Client {
		if rw, ok := st.reuse.(access.Rewinder); ok {
			rw.Rewind(st.curKey)
			return st.reuse
		}
		c := s.bc.NewClient(st.curKey)
		if _, ok := c.(access.Rewinder); ok {
			st.reuse = c
		}
		return c
	}
	return st
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
// either way.
func (s *Simulator) Run() (*Result, error) {
	n := max(s.cfg.Shards, 1)
	streams := make([]*stream, n)
	accs := make([]*shardAccum, n)
	for i := range streams {
		streams[i] = s.newStream(i, n)
		accs[i] = &streams[i].shardAccum
	}
	startRounds := make([]int, n)
	errs := make([]error, n)
	for {
		var active []int
		for i, st := range streams {
			if !st.done {
				active = append(active, i)
				startRounds[i] = st.rounds
			}
		}
		var wg sync.WaitGroup
		for _, i := range active {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.round(streams[i])
			}()
		}
		wg.Wait()

		waveComplete := true
		for _, i := range active {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if streams[i].rounds == startRounds[i] {
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
		res.Access.Merge(&sh.access)
		res.Tuning.Merge(&sh.tuning)
		res.Energy.Merge(&sh.energy)
		res.Probes.Merge(&sh.probes)
		a95.Merge(sh.accessP95)
		a99.Merge(sh.accessP99)
		t95.Merge(sh.tuningP95)
		t99.Merge(sh.tuningP99)
	}
	res.Events = res.Requests // one arrival per request
	res.AccessP95 = a95.Value()
	res.AccessP99 = a99.Value()
	res.TuningP95 = t95.Value()
	res.TuningP99 = t99.Value()
	return res
}
