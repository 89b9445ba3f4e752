package airql

import "github.com/airindex/airindex/internal/core"

// Options tunes how compiled scenarios run: the session-wide profile,
// seed, shards and knob settings every scenario inherits, part
// of the deterministic (Seed, Shards) contract.
type Options struct {
	// Fast shrinks workloads and relaxes the stopping rule for test and
	// benchmark runs; the full mode uses the paper's Table 1 settings.
	// In scenario scripts, fast(...) variants on SWEEP and SET stages
	// select their values under this profile.
	Fast bool
	// Seed overrides the run seed (0 keeps the default). A script's RUN
	// seed=N applies only when this is 0, so the session flag wins.
	Seed int64
	// Shards forwards core.Config.Shards to every point: each run's
	// accuracy-control rounds execute across this many deterministic RNG
	// substreams (0 keeps the single-shard default). Results depend on
	// (Seed, Shards) but not on scheduling; see DESIGN.md §7.
	Shards int
	// Settings are session-wide knob assignments (the CLIs' -set flags,
	// parsed by ParseSettings), applied to every point before the
	// script's own knobs. A script's fault.* knobs replace the session
	// fault config wholesale (ablate-errors clears it with
	// fault.model=none); its multi.* knobs patch the session allocation
	// field by field. A zero-rate fault model or a one-channel replicated
	// allocation reproduces the plain tables byte for byte.
	Settings []Setting
	// Progress, when non-nil, receives one line per completed point.
	Progress func(format string, args ...any)
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// BaseConfig applies the stopping-rule profile, then the session
// settings, to a scheme/record pair: a scenario point's config before the
// script's own knobs.
func (o Options) BaseConfig(scheme string, records int) core.Config {
	cfg := o.profileConfig(scheme, records)
	fold(&cfg, new(pointFaults), o.Settings)
	return cfg
}

// profileConfig applies the stopping-rule profile, seed and shards to a
// scheme/record pair.
func (o Options) profileConfig(scheme string, records int) core.Config {
	cfg := core.DefaultConfig(scheme, records)
	if o.Fast {
		cfg.RoundSize = 250
		cfg.Accuracy = 0.02
		cfg.MinRequests = 1500
		cfg.MaxRequests = 20000
	} else {
		// Table 1: 0.99 confidence, 0.01 accuracy, 500-request rounds.
		cfg.MinRequests = 5000
		cfg.MaxRequests = 60000
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Shards > 0 {
		cfg.Shards = o.Shards
	}
	return cfg
}

// RecordSweep is the x axis of Figure 4 (Table 1: 7,000–34,000 records).
// The scenario scripts spell these values out; this stays exported for
// the Table 1 pin and the tests that size workloads from it.
func (o Options) RecordSweep() []int {
	if o.Fast {
		// Past 1,728 records the default geometry's tree reaches the same
		// depth regime as the paper's sweep, so the Figure 4 orderings hold.
		return []int{2000, 2500, 3000, 3500}
	}
	return []int{7000, 11500, 16000, 20500, 25000, 29500, 34000}
}

// ComparisonRecords sizes the Figures 5 and 6 workloads, and is the
// default database size for scripts that never set records.
func (o Options) ComparisonRecords() int {
	if o.Fast {
		// Above 13^3 = 2,197 records the default geometry's tree has four
		// levels, the regime where the paper's tuning orderings hold.
		return 2500
	}
	return 10000
}
