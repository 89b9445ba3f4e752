package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/aircast"
	"github.com/airindex/airindex/internal/cohort"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/stats"
)

// The layer probes. Public entry points hide layers: airql.Execute hides
// datagen, Build and the run driver, and Simulator.Run hides the walk
// kernels. So after its traced passes a traced run calls each layer
// directly, on every configuration the workload runs, fed that
// configuration's own data and one pinned round of its own (key,
// arrival) pairs. Every workload thus reports every layer. The recovery
// walk runs under the configuration's faults and channels, or under the
// lossy workload's (lossyFaults on lossyMulti) when it sets none.
const (
	// probeMin is how long each kernel probe repeats its round.
	probeMin = 30 * time.Millisecond
	// probeRequests sizes the run-driver probes.
	probeRequests = 2000
	// probeMerges is how many sample pairs one stats.merge span merges.
	probeMerges = 256
)

// runProbes runs the probe suite under one root span and returns the
// differential checks it made. The live probe runs only when the traced
// passes did not already record live sessions.
func runProbes(w workload, tr *tracer) (tally, error) {
	var t tally
	live := tr.totals().spans["aircast.resolve_key"] == 0
	root := tr.begin("probes", 0, -1)
	defer tr.end(root, 0)
	for _, cfg := range w.probeCases() {
		if err := probeCase(tr, root, cfg, live, &t); err != nil {
			return t, fmt.Errorf("%s at %d records: %w", cfg.Scheme, cfg.Data.NumRecords, err)
		}
	}
	return t, nil
}

// timed runs fn inside a span named name and credits it count units.
func timed(tr *tracer, name string, parent int, count int64, fn func() error) error {
	sp := tr.begin(name, parent, -1)
	err := fn()
	tr.end(sp, count)
	return err
}

// repeat runs fn inside spans named name until probeMin has passed.
func repeat(tr *tracer, name string, parent int, count int64, fn func()) {
	for t0 := now(); now().Sub(t0) < probeMin; {
		sp := tr.begin(name, parent, -1)
		fn()
		tr.end(sp, count)
	}
}

func probeCase(tr *tracer, root int, cfg core.Config, live bool, t *tally) error {
	var ds *datagen.Dataset
	var bc access.Broadcast
	var set *multichannel.Set
	var img *aircast.Image
	mc, fc := cfg.Multi, cfg.Faults
	if !mc.Enabled() {
		mc = lossyMulti
	}
	if !fc.Enabled() {
		fc = lossyFaults()
	}
	err := timed(tr, "datagen.generate", root, int64(cfg.Data.NumRecords), func() (err error) {
		ds, err = datagen.Generate(cfg.Data)
		return err
	})
	if err == nil {
		err = timed(tr, "schemes.build", root, 1, func() (err error) {
			bc, err = core.BuildBroadcast(ds, cfg)
			return err
		})
	}
	if err == nil {
		err = timed(tr, "multichannel.build", root, 1, func() (err error) {
			set, err = multichannel.Build(bc.Channel(), mc)
			return err
		})
	}
	if err == nil {
		err = timed(tr, "wire.build_image", root, 1, func() (err error) {
			img, err = aircast.BuildImage(1, program(cfg, bc), bc.Channel())
			return err
		})
	}
	if err != nil {
		return err
	}

	keys, arrivals := pinnedRound(ds, cfg)
	n := int64(len(keys))
	ch := bc.Channel()

	// access.Walk with a fresh client per request, as the events engine
	// walks a clean single channel.
	walks := make([]access.Result, n)
	var walkErr error
	repeat(tr, "access.walk", root, n, func() {
		for i, key := range keys {
			r, err := access.Walk(ch, bc.NewClient(key), arrivals[i], 0)
			walks[i] = r
			if err != nil {
				walkErr = err
			}
		}
	})
	if walkErr != nil {
		return walkErr
	}
	for _, r := range walks {
		tr.add("access.walk_probes", int64(r.Probes))
	}
	tr.add("access.walk_requests", n)

	// access.WalkRecoverMulti over the K-channel set and the fault
	// process, a fresh injector per repetition so every one replays the
	// same faults.
	pol := access.RecoverPolicy{MaxRetries: fc.MaxRetries, NextCycle: fc.Recovery == faults.RecoverNextCycle}
	recovered := make([]access.MultiResult, n)
	repeat(tr, "access.walk_recover_multi", root, n, func() {
		inj := faults.New(fc, cfg.Seed, 0)
		for i, key := range keys {
			inj.StartRequest()
			r, err := access.WalkRecoverMulti(set, func() access.Client { return bc.NewClient(key) }, arrivals[i], inj, pol, 0)
			recovered[i] = r
			if err != nil {
				walkErr = err
			}
		}
	})
	if walkErr != nil {
		return walkErr
	}
	tr.add("recover.requests", n)
	for _, r := range recovered {
		tr.add("recover.restarts", int64(r.Restarts))
		tr.add("recover.wasted_bytes", int64(r.Wasted))
		tr.add("recover.tuning_bytes", int64(r.Tuning))
		tr.add("recover.switches", int64(r.Switches))
		if r.Restarts == 0 {
			tr.add("recover.first_try", 1)
		}
		if r.Unrecovered {
			tr.add("recover.unrecovered", 1)
		}
	}

	// The cohort kernels over the same round; each lane must equal its
	// access.Walk result.
	b := cohort.New()
	resolver, _ := bc.(access.Resolver)
	kernel := "cohort.advance_clean"
	if resolver != nil {
		kernel = "cohort.resolve_lanes"
	}
	ok := true
	for t0 := now(); now().Sub(t0) < probeMin; {
		b.Reset(len(keys))
		copy(b.Key, keys)
		copy(b.Arrival, arrivals)
		if resolver == nil {
			primeClients(b, bc)
		}
		sp := tr.begin(kernel, root, -1)
		if resolver != nil {
			ok = b.ResolveLanes(resolver)
		} else {
			ok = b.AdvanceClean(ch, 0)
		}
		tr.end(sp, n)
		if !ok {
			break
		}
	}
	for i, r := range walks {
		t.check(ok && b.State[i] == cohort.LaneDone && r == access.Result{
			Access: b.Access[i], Tuning: b.Tuning[i], Found: b.Found[i], Probes: b.Probes[i],
		})
	}

	probeStats(tr, root, walks)

	// The run driver on both engines; their Results must be equal.
	var events, coh *core.Result
	for _, e := range []struct {
		engine, span string
		res          **core.Result
	}{{core.EngineEvents, "core.run_events", &events}, {core.EngineCohort, "core.run_cohort", &coh}} {
		rc := cfg
		rc.Engine = e.engine
		rc.MinRequests, rc.MaxRequests = probeRequests, probeRequests
		s, err := core.New(rc)
		if err != nil {
			return err
		}
		if err := timed(tr, e.span, root, probeRequests, func() (err error) {
			*e.res, err = s.Run()
			return err
		}); err != nil {
			return err
		}
	}
	t.check(reflect.DeepEqual(events, coh))

	if live {
		probeLive(tr, root, cfg, ds, bc, img, keys, t)
	}
	return nil
}

// pinnedRound draws the configuration's first round of requests in the
// engines' order: the pending arrival, then per request the key and the
// gap to the next arrival.
func pinnedRound(ds *datagen.Dataset, cfg core.Config) ([]uint64, []sim.Time) {
	rng := sim.NewRNG(cfg.Seed)
	keys := make([]uint64, cfg.RoundSize)
	arrivals := make([]sim.Time, cfg.RoundSize)
	next := rng.Exponential(cfg.RequestMean)
	for i := range keys {
		arrivals[i] = next
		idx := rng.Intn(ds.Len())
		if cfg.Availability >= 1 || rng.Float64() < cfg.Availability {
			keys[i] = ds.KeyAt(idx)
		} else {
			keys[i] = ds.MissingKeyNear(idx)
		}
		next += rng.Exponential(cfg.RequestMean)
	}
	return keys, arrivals
}

// primeClients readies the Clients column as the cohort engine does:
// rewound in place where the scheme allows it, fresh otherwise.
func primeClients(b *cohort.Batch, bc access.Broadcast) {
	for i, key := range b.Key {
		if rw, ok := b.Clients[i].(access.Rewinder); ok {
			rw.Rewind(key)
			continue
		}
		b.Clients[i] = bc.NewClient(key)
	}
}

// probeStats folds the round's access times into the accumulators the
// engines use, and merges two halves of them.
func probeStats(tr *tracer, root int, walks []access.Result) {
	vals := make([]float64, len(walks))
	for i, r := range walks {
		vals[i] = float64(r.Access)
	}
	n := int64(len(vals))
	repeat(tr, "stats.sample_add", root, n, func() {
		var s stats.Sample
		s.AddAll(vals)
	})
	repeat(tr, "stats.quantile_add", root, n, func() {
		stats.MustQuantile(0.99).AddAll(vals)
	})
	var sa, sb stats.Sample
	qa, qb := stats.MustQuantile(0.99), stats.MustQuantile(0.99)
	sa.AddAll(vals[:n/2])
	sb.AddAll(vals[n/2:])
	qa.AddAll(vals[:n/2])
	qb.AddAll(vals[n/2:])
	ss := make([]stats.Sample, probeMerges)
	qs := make([]*stats.Quantile, probeMerges)
	for t0 := now(); now().Sub(t0) < probeMin; {
		for i := range ss {
			ss[i] = sa
			qs[i] = stats.MustQuantile(0.99)
			qs[i].Merge(qa) // an empty receiver copies
		}
		sp := tr.begin("stats.merge", root, -1)
		for i := range ss {
			ss[i].Merge(&sb)
			qs[i].Merge(qb)
		}
		tr.end(sp, probeMerges)
	}
}

// probeLive serves the configuration's image from an unpaced server and
// resolves the round's keys over one timed session until probeMin has
// passed, checking each result as the live workload does.
func probeLive(tr *tracer, root int, cfg core.Config, ds *datagen.Dataset, bc access.Broadcast, img *aircast.Image, keys []uint64, t *tally) {
	st := &station{cfg: cfg, ds: ds, bc: bc, prog: img.Program(), img: img, bytes: airborne.NewBytes(bc.Channel())}
	srv, err := aircast.NewServer(aircast.Config{}, img)
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		t.check(false)
		return
	}
	defer srv.Stop()
	timedRx := &timedReceiver{rx: srv.Subscribe()}
	sess := aircast.NewSession(timedRx, st.prog)
	defer sess.Close()
	sp := tr.begin("aircast.probe", root, -1)
	defer tr.end(sp, 0)
	for i, t0 := 0, now(); i < len(keys) && now().Sub(t0) < probeMin; i++ {
		o, _ := resolve(tr, sp, sess, timedRx, keys[i], int64(i))
		t.check(o.err == nil && o.res.Found == bc.Contains(o.key) && matchesWalk(st, o))
	}
}

// perLayer derives the per-layer metrics from a traced run's spans and
// counters. overhead is the untraced passes' request rate over the traced
// passes' rate, minus one.
func perLayer(tr *tracer, overhead float64) (map[string]metric, error) {
	lt := tr.totals()
	c := tr.counters
	var missing []string
	div := func(name string, a, b int64) float64 {
		if b == 0 {
			missing = append(missing, name)
			return 0
		}
		return float64(a) / float64(b)
	}
	msOf := func(span string) float64 {
		if lt.spans[span] == 0 {
			missing = append(missing, span)
		}
		return float64(lt.selfNS[span]) / 1e6
	}
	perUnit := func(span string) float64 { return div(span, lt.selfNS[span], lt.count[span]) }
	recv, key := "aircast.recv", "aircast.resolve_key"
	m := map[string]metric{
		"datagen.generate_ms":                  {msOf("datagen.generate"), "ms"},
		"schemes.build_ms":                     {msOf("schemes.build"), "ms"},
		"multichannel.build_ms":                {msOf("multichannel.build"), "ms"},
		"wire.build_image_ms":                  {msOf("wire.build_image"), "ms"},
		"access.walk_ns_per_req":               {perUnit("access.walk"), "ns"},
		"access.probes_per_req":                {div("access.walk_probes", c["access.walk_probes"], c["access.walk_requests"]), "count"},
		"access.walk_recover_multi_ns_per_req": {perUnit("access.walk_recover_multi"), "ns"},
		"access.restarts_per_req":              {div("recover.restarts", c["recover.restarts"], c["recover.requests"]), "count"},
		"access.first_try_ratio":               {div("recover.first_try", c["recover.first_try"], c["recover.requests"]), "ratio"},
		"access.wasted_tuning_ratio":           {div("recover.wasted_bytes", c["recover.wasted_bytes"], c["recover.tuning_bytes"]), "ratio"},
		"access.unrecovered_ratio":             {div("recover.unrecovered", c["recover.unrecovered"], c["recover.requests"]), "ratio"},
		"multichannel.switches_per_req":        {div("recover.switches", c["recover.switches"], c["recover.requests"]), "count"},
		"cohort.resolve_ns_per_lane":           {perUnit("cohort.resolve_lanes"), "ns"},
		"cohort.advance_ns_per_lane":           {perUnit("cohort.advance_clean"), "ns"},
		"stats.sample_add_ns":                  {perUnit("stats.sample_add"), "ns"},
		"stats.quantile_add_ns":                {perUnit("stats.quantile_add"), "ns"},
		"stats.merge_ns":                       {perUnit("stats.merge"), "ns"},
		"core.events_ns_per_req":               {perUnit("core.run_events"), "ns"},
		"core.cohort_ns_per_req":               {perUnit("core.run_cohort"), "ns"},
		"aircast.recv_ns_per_datagram":         {perUnit(recv), "ns"},
		"aircast.session_ns_per_datagram":      {div(key, lt.selfNS[key], lt.count[recv]), "ns"},
		"aircast.recv_share":                   {div(recv, lt.selfNS[recv], lt.selfNS[recv]+lt.selfNS[key]), "ratio"},
		"aircast.datagrams_per_key":            {div(key, lt.count[recv], lt.spans[key]), "count"},
		"aircast.read_ratio":                   {div(recv, c["aircast.frames_read"], lt.count[recv]), "ratio"},
		"aircast.epoch_restarts_per_key":       {div(key, c["aircast.epoch_restarts"], lt.spans[key]), "count"},
		"trace.overhead_ratio":                 {overhead, "ratio"},
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("traced run recorded nothing for %v", missing)
	}
	return m, nil
}
