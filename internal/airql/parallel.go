package airql

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
)

// runPoints executes one simulation per config concurrently (bounded by
// GOMAXPROCS) and returns results in input order. Every run is seeded by
// its own config, so the output is identical to a sequential sweep.
// Points with the same data config share one generated dataset (see
// datasets).
//
// This file and the round-sharded engine (internal/core/engine.go) are
// the testbed's only sanctioned concurrency layers: the confinement
// analyzer (internal/lint) rejects goroutines, WaitGroups and channel
// construction everywhere else, so the simulation kernel below this point
// is single-threaded by construction. It moved here with the executor
// when the experiment harness became a set of compiled scenarios.
func runPoints(opt Options, cfgs []core.Config) ([]*core.Result, error) {
	results := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	data := newDatasets(cfgs)
	var progressMu sync.Mutex
	// The semaphore budgets CPU demand, not run count: a sharded run
	// occupies Shards slots (capped at the capacity) because the engine
	// drives that many event loops at once. Slots are acquired here in the
	// loop before spawning — never inside the goroutines — so acquisition
	// of multiple slots cannot deadlock, and the large per-run state
	// a simulator allocates (broadcast image, client pools) stays bounded.
	capacity := runtime.GOMAXPROCS(0)
	sem := make(chan struct{}, capacity)
	var wg sync.WaitGroup
	for i := range cfgs {
		weight := cfgs[i].Shards
		if weight < 1 {
			weight = 1
		}
		if weight > capacity {
			weight = capacity
		}
		for s := 0; s < weight; s++ {
			sem <- struct{}{}
		}
		wg.Add(1)
		go func(i, weight int) {
			defer wg.Done()
			defer func() {
				for s := 0; s < weight; s++ {
					<-sem
				}
			}()
			cfg := cfgs[i]
			res, err := runPoint(data, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("%s @ %d records: %w", cfg.Scheme, cfg.Data.NumRecords, err)
				return
			}
			results[i] = res
			progressMu.Lock()
			opt.progress("%-22s records=%-6d avail=%.0f%% access=%.0f tuning=%.0f requests=%d",
				cfg.Scheme, cfg.Data.NumRecords, cfg.Availability*100,
				res.Access.Mean(), res.Tuning.Mean(), res.Requests)
			progressMu.Unlock()
		}(i, weight)
	}
	wg.Wait()
	// errors.Join keeps input order, so the first failing point leads the
	// message and no failure is silently dropped.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// runPoint runs one point over its shared dataset. Execute checked the
// point's config before any point ran, and NewOn checks it again.
func runPoint(data *datasets, cfg core.Config) (*core.Result, error) {
	defer data.release(cfg.Data)
	ds, err := data.get(cfg.Data)
	if err != nil {
		return nil, err
	}
	s, err := core.NewOn(ds, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// datasets generates each distinct data config of a sweep once, on first
// use, and drops it when the last point using it has finished, so at most
// the datasets of the points in flight stay live.
type datasets struct {
	mu      sync.Mutex
	entries map[datagen.Config]*dataset
}

type dataset struct {
	once sync.Once
	ds   *datagen.Dataset
	err  error
	refs int // points yet to finish
}

func newDatasets(cfgs []core.Config) *datasets {
	d := &datasets{entries: make(map[datagen.Config]*dataset)}
	for _, cfg := range cfgs {
		e := d.entries[cfg.Data]
		if e == nil {
			e = &dataset{}
			d.entries[cfg.Data] = e
		}
		e.refs++
	}
	return d
}

// get returns the dataset for cfg, generating it if no point has yet; a
// generation error is every sharing point's error.
func (d *datasets) get(cfg datagen.Config) (*datagen.Dataset, error) {
	d.mu.Lock()
	e := d.entries[cfg]
	d.mu.Unlock()
	e.once.Do(func() { e.ds, e.err = datagen.Generate(cfg) })
	return e.ds, e.err
}

// release marks one point of cfg finished, dropping the dataset after the
// last.
func (d *datasets) release(cfg datagen.Config) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.entries[cfg]; e != nil {
		if e.refs--; e.refs == 0 {
			delete(d.entries, cfg)
		}
	}
}
