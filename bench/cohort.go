package main

import (
	"reflect"
	"time"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
)

// cohortWorkload runs simulation jobs on the columnar cohort engine. Its
// set-up is core.New per scheme (datagen and Build); a pass is one job
// per scheme, a Simulator.Run with MinRequests = MaxRequests, so every
// job serves exactly its request count. An operation is one job. Jobs of
// a scheme replay the same seed, so each must equal the scheme's first.
type cohortWorkload struct {
	cfgs []core.Config
	sims []*core.Simulator

	first []*core.Result // per scheme, the first job's result
	last  []*core.Result // per scheme, the last pass's result
	errs  []error        // per scheme, the last pass's error
	runs  []int64        // per scheme, requests run so far
	bad   []bool         // per scheme, any check failed
}

// spotRequests sizes the differential spot check against the events
// engine.
const spotRequests = 5000

// newCohortClean is the cohort-clean workload: the Fig. 4 midpoint of
// 17,500 records on a perfect single channel. Flat takes the closed-form
// resolver (cohort.Batch.ResolveLanes); distributed and hashing take the
// stepped kernel (cohort.Batch.AdvanceClean). Signature is left out: the
// cohort engine has no resolver for it and its stepped walks would
// dominate the run. Job sizes give every scheme's job about the same run
// time, long enough that millisecond stalls of the host average out.
func newCohortClean(seed int64, tiny bool) *cohortWorkload {
	records, flatJob, distJob, hashJob := 17500, 65000, 42500, 50000
	if tiny {
		records, flatJob, distJob, hashJob = 2000, 1000, 1000, 1000
	}
	return newCohortWorkload([]core.Config{
		cohortConfig("flat", records, flatJob, seed),
		cohortConfig("distributed", records, distJob, seed),
		cohortConfig("hashing", records, hashJob, seed),
	})
}

// newCohortLossy is the cohort-lossy-k4 workload: availability 0.9,
// bursty Gilbert-Elliott loss with 16 retries and restart recovery, and
// K = 4 replicated channels with a 1,024-byte switch cost, on two
// shards. Every lane takes the per-lane access.WalkRecoverMulti
// fallback. Flat runs on 2,000 records with small jobs, because under
// loss a serial scan restarts over and over, and a flat request costs
// about 40 times a distributed one. Job sizes give every scheme's job
// about the same run time.
func newCohortLossy(seed int64, tiny bool) *cohortWorkload {
	records, flatRecords, flatJob, distJob, hashJob := 17500, 2000, 500, 20000, 24000
	if tiny {
		records, flatRecords, flatJob, distJob, hashJob = 2000, 500, 500, 1000, 1000
	}
	cfgs := []core.Config{
		cohortConfig("flat", flatRecords, flatJob, seed),
		cohortConfig("distributed", records, distJob, seed),
		cohortConfig("hashing", records, hashJob, seed),
	}
	for i := range cfgs {
		cfgs[i].Availability = 0.9
		cfgs[i].Shards = 2
		cfgs[i].Faults = lossyFaults()
		cfgs[i].Multi = lossyMulti
	}
	return newCohortWorkload(cfgs)
}

// lossyFaults is the lossy workload's channel: Gilbert-Elliott bursts
// with a 5% bad-state error rate, 16 retries, restart recovery.
func lossyFaults() faults.Config {
	f := faults.FromRate(faults.ModelGilbertElliott, 0.05)
	f.MaxRetries = 16
	f.Recovery = faults.RecoverRestart
	return f
}

// lossyMulti is the lossy workload's allocation: four replicated
// channels, 1,024 bytes to switch.
var lossyMulti = multichannel.Config{Channels: 4, SwitchCost: 1024, Policy: multichannel.PolicyReplicated}

func cohortConfig(scheme string, records, requests int, seed int64) core.Config {
	cfg := core.DefaultConfig(scheme, records)
	cfg.Seed = seed
	cfg.Engine = core.EngineCohort
	cfg.MinRequests, cfg.MaxRequests = requests, requests
	return cfg
}

// newCohortWorkload also runs the spot check: each scheme's configuration
// at spotRequests on both engines, where the cohort Result must
// deep-equal the events engine's.
func newCohortWorkload(cfgs []core.Config) *cohortWorkload {
	n := len(cfgs)
	c := &cohortWorkload{
		cfgs:  cfgs,
		first: make([]*core.Result, n),
		last:  make([]*core.Result, n),
		errs:  make([]error, n),
		runs:  make([]int64, n),
		bad:   make([]bool, n),
	}
	for i, cfg := range cfgs {
		cfg.MinRequests, cfg.MaxRequests = spotRequests, spotRequests
		coh, err1 := core.RunOne(cfg)
		cfg.Engine = core.EngineEvents
		ev, err2 := core.RunOne(cfg)
		c.bad[i] = err1 != nil || err2 != nil || !reflect.DeepEqual(coh, ev)
	}
	return c
}

func (c *cohortWorkload) setup() error {
	sims := make([]*core.Simulator, len(c.cfgs))
	for i, cfg := range c.cfgs {
		s, err := core.New(cfg)
		if err != nil {
			return err
		}
		sims[i] = s
	}
	c.sims = sims
	return nil
}

func (c *cohortWorkload) pass(tr *tracer) (int64, []time.Duration, error) {
	lat := make([]time.Duration, len(c.sims))
	var requests int64
	for i, s := range c.sims {
		sp := tr.begin("core.run", 0, -1)
		t0 := now()
		c.last[i], c.errs[i] = s.Run()
		lat[i] = now().Sub(t0)
		n := int64(c.cfgs[i].MaxRequests)
		tr.end(sp, n)
		requests += n
	}
	return requests, lat, nil
}

func (c *cohortWorkload) verify() {
	for i, res := range c.last {
		want := int64(c.cfgs[i].MaxRequests)
		c.runs[i] += want
		if c.errs[i] != nil || res.Requests != want {
			c.bad[i] = true
			continue
		}
		if c.first[i] == nil {
			c.first[i] = res
		} else if !reflect.DeepEqual(res, c.first[i]) {
			c.bad[i] = true
		}
	}
}

// tally counts requests; a scheme that failed any check counts all its
// requests as failed.
func (c *cohortWorkload) tally() tally {
	var t tally
	for i, n := range c.runs {
		t.attempted += n
		if c.bad[i] {
			t.failed += n
		}
	}
	return t
}

func (c *cohortWorkload) probeCases() []core.Config { return c.cfgs }
