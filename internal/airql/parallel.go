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
// Points whose data configs differ at most in the record count share one
// generated dataset (see datasets).
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

// datasets generates the data of a sweep's points. Points whose data
// configs differ only in the record count form a family and share one
// dataset, generated once, on first use, at the family's largest count;
// each point reads the prefix of its own count (datagen.Dataset.Prefix).
// The dataset is dropped when the family's last point has finished, so at
// most the datasets of the families in flight stay live.
type datasets struct {
	mu      sync.Mutex
	entries map[datagen.Config]*dataset // keyed by family
}

type dataset struct {
	once sync.Once
	cfg  datagen.Config // the family's config at its largest count
	ds   *datagen.Dataset
	err  error
	refs int // points yet to finish
}

// family is cfg with the record count cleared.
func family(cfg datagen.Config) datagen.Config {
	cfg.NumRecords = 0
	return cfg
}

func newDatasets(cfgs []core.Config) *datasets {
	d := &datasets{entries: make(map[datagen.Config]*dataset)}
	for _, cfg := range cfgs {
		k := family(cfg.Data)
		e := d.entries[k]
		if e == nil {
			e = &dataset{}
			d.entries[k] = e
		}
		e.refs++
		if cfg.Data.NumRecords > e.cfg.NumRecords {
			e.cfg = cfg.Data
		}
	}
	return d
}

// get returns the dataset for cfg, generating its family's if no point has
// yet. When that generation fails, the points at the largest count report
// the error and every other point generates its own dataset, so each point
// fails or succeeds exactly as datagen.Generate(cfg) would.
func (d *datasets) get(cfg datagen.Config) (*datagen.Dataset, error) {
	d.mu.Lock()
	e := d.entries[family(cfg)]
	d.mu.Unlock()
	e.once.Do(func() { e.ds, e.err = datagen.Generate(e.cfg) })
	switch {
	case e.err == nil && cfg.NumRecords > 0:
		return e.ds.Prefix(cfg.NumRecords), nil
	case cfg == e.cfg:
		return nil, e.err
	}
	return datagen.Generate(cfg)
}

// release marks one point of cfg finished, dropping its family's dataset
// after the last.
func (d *datasets) release(cfg datagen.Config) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := family(cfg)
	if e := d.entries[k]; e != nil {
		if e.refs--; e.refs == 0 {
			delete(d.entries, k)
		}
	}
}
