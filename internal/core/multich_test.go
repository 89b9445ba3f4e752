package core

import (
	"reflect"
	"testing"

	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
)

// stripMultiParams removes the multichannel echo keys so a K=1 Result can
// be compared field-for-field against the single-channel baseline, whose
// Params carry only the scheme's structural parameters.
func stripMultiParams(r *Result) *Result {
	c := *r
	c.Params = make(map[string]float64, len(r.Params))
	for k, v := range r.Params {
		if k == "channels" || k == "switch_cost" || k == "policy" {
			continue
		}
		c.Params[k] = v
	}
	return &c
}

// TestMultiK1ReproducesSingleChannel is the subsystem's differential
// gate at the simulator level: a one-channel replicated allocation with
// zero switch cost must reproduce the single-channel Result byte for
// byte for every scheme — the hopping walkers consume no RNG, so the
// arrival stream is untouched.
func TestMultiK1ReproducesSingleChannel(t *testing.T) {
	for _, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			base := smallConfig(scheme, 300)
			want, err := RunOne(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Multi = multichannel.Config{Channels: 1}
			got, err := RunOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Params["channels"] != 1 || got.Switches != 0 {
				t.Fatalf("K=1 run: channels=%v switches=%d", got.Params["channels"], got.Switches)
			}
			if !reflect.DeepEqual(want, stripMultiParams(got)) {
				t.Fatalf("K=1 replicated diverged from the single channel:\nsingle: %+v\nmulti:  %+v", want, got)
			}
		})
	}
}

// TestMultiK1ReproducesFaultyChannel extends the K=1 identity to the
// recovering walker: same allocation, faults enabled.
func TestMultiK1ReproducesFaultyChannel(t *testing.T) {
	for _, pol := range []faults.RecoveryKind{faults.RecoverRestart, faults.RecoverNextCycle} {
		base := smallConfig("distributed", 300)
		base.Faults = faults.FromRate(faults.ModelDrop, 0.05)
		base.Faults.Recovery = pol
		want, err := RunOne(base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Multi = multichannel.Config{Channels: 1}
		got, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, stripMultiParams(got)) {
			t.Fatalf("recovery %v: K=1 faulty run diverged from the single channel", pol)
		}
	}
}

// TestMultiRunDeterministic: a multichannel Result is a pure function of
// (seed, shards, multichannel config), sequentially and sharded.
func TestMultiRunDeterministic(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := smallConfig("distributed", 300)
		cfg.Shards = shards
		cfg.Multi = multichannel.Config{Channels: 4, SwitchCost: 256}
		a, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: identical (seed, shards, multi) produced different Results", shards)
		}
	}
}

// TestMultiShardedMatchesSequentialShape: the wave driver accumulates the
// hop counters; one shard must reproduce the multichannel Result the
// original sequential controller recorded in the golden file.
func TestMultiShardedMatchesSequentialShape(t *testing.T) {
	cfg := smallConfig("(1,m)", 300)
	cfg.Multi = multichannel.Config{Channels: 2}
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := "(1,m)/multi-k2/shards=1"
	if want, got := readGolden(t)[key], formatGolden(key, res); got != want {
		t.Fatalf("one-shard multichannel run diverged from the sequential stream:\nwant: %s\ngot:  %s", want, got)
	}
	if res.Switches == 0 {
		t.Fatal("K=2 (1,m) run recorded no channel switches; hopping is not exercised")
	}
}

// TestMultiReplicatedSpeedsUpAccess: a K-channel replicated allocation
// must cut the mean access time roughly toward 1/K for an indexed scheme
// without touching tuning time.
func TestMultiReplicatedSpeedsUpAccess(t *testing.T) {
	base := smallConfig("distributed", 500)
	single, err := RunOne(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Multi = multichannel.Config{Channels: 4}
	multi, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Access.Mean() >= 0.8*single.Access.Mean() {
		t.Fatalf("K=4 replicated access %v not clearly below single-channel %v", multi.Access.Mean(), single.Access.Mean())
	}
	if multi.Tuning.Mean() > 1.05*single.Tuning.Mean() {
		t.Fatalf("K=4 replicated tuning %v grew past single-channel %v", multi.Tuning.Mean(), single.Tuning.Mean())
	}
}

// TestMultiSwitchCostSlowsAccess: raising the retune cost cannot improve
// access time, and the walker's cost gating keeps the expensive run no
// worse than staying on one channel.
func TestMultiSwitchCostSlowsAccess(t *testing.T) {
	base := smallConfig("distributed", 500)
	free := base
	free.Multi = multichannel.Config{Channels: 4}
	cheap, err := RunOne(free)
	if err != nil {
		t.Fatal(err)
	}
	costly := base
	costly.Multi = multichannel.Config{Channels: 4, SwitchCost: 4096}
	dear, err := RunOne(costly)
	if err != nil {
		t.Fatal(err)
	}
	if dear.Access.Mean() < cheap.Access.Mean() {
		t.Fatalf("switch cost 4096 improved access: %v < %v", dear.Access.Mean(), cheap.Access.Mean())
	}
	single, err := RunOne(base)
	if err != nil {
		t.Fatal(err)
	}
	if dear.Access.Mean() > 1.1*single.Access.Mean() {
		t.Fatalf("cost gating failed: costly K=4 access %v far above single-channel %v", dear.Access.Mean(), single.Access.Mean())
	}
	if dear.SwitchWaitBytes > 0 && dear.Switches == 0 {
		t.Fatal("switch wait recorded without switches")
	}
}

// TestMultiIndexDataRuns: the index/data split runs end to end for the
// indexed schemes and rejects the flat (all-data) cycle at build time.
func TestMultiIndexDataRuns(t *testing.T) {
	for _, scheme := range []string{"(1,m)", "distributed"} {
		cfg := smallConfig(scheme, 300)
		cfg.Multi = multichannel.Config{Channels: 3, Policy: multichannel.PolicyIndexData}
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found == 0 {
			t.Fatalf("%s: index/data run found nothing", scheme)
		}
		if res.Switches == 0 {
			t.Fatalf("%s: index/data run never hopped from index to data channel", scheme)
		}
	}
	cfg := smallConfig("flat", 300)
	cfg.Multi = multichannel.Config{Channels: 2, Policy: multichannel.PolicyIndexData}
	if _, err := RunOne(cfg); err == nil {
		t.Fatal("index/data policy accepted the flat all-data cycle")
	}
}

// TestMultiSkewedRuns: the skewed partition runs with a Zipf workload,
// inheriting the workload skew by default.
func TestMultiSkewedRuns(t *testing.T) {
	cfg := smallConfig("(1,m)", 300)
	cfg.ZipfS = 1.2
	cfg.Multi = multichannel.Config{Channels: 3, Policy: multichannel.PolicySkewed}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Multichannel().Config().Skew; got != 1.2 {
		t.Fatalf("skewed allocation inherited skew %v, want the workload's 1.2", got)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == 0 {
		t.Fatal("skewed run found nothing")
	}
}

// TestMultiValidation covers the config-level rules: the serial-scheme
// retry caveat and the multichannel cross-checks.
func TestMultiValidation(t *testing.T) {
	// Serial scheme + corrupting faults + availability < 1 + unbounded
	// retries must be rejected...
	cfg := smallConfig("flat", 100)
	cfg.Availability = 0.8
	cfg.Faults = faults.FromRate(faults.ModelDrop, 0.05)
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted unbounded retries for a serial scheme with missing keys")
	}
	// ...and each escape hatch must re-admit it.
	for _, fix := range []func(*Config){
		func(c *Config) { c.Faults.MaxRetries = 3 },
		func(c *Config) { c.Availability = 1 },
		func(c *Config) { c.Faults.DropRate = 0 },
		func(c *Config) { c.Scheme = "distributed" },
	} {
		ok := cfg
		fix(&ok)
		if err := ok.Validate(); err != nil {
			t.Fatalf("escape hatch rejected: %v", err)
		}
	}

	bad := smallConfig("flat", 100)
	bad.Multi = multichannel.Config{Channels: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a negative channel count")
	}
}
