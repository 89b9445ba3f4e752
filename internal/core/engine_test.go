package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/faults"
)

// TestOneShardMatchesSequential pins the one-stream request order: a
// one-shard run — with Shards 0 or 1, which are equivalent — must
// reproduce the Results of the original single-stream sequential
// controller, which the golden file recorded for these variants, across
// the uniform, Zipf, partial-availability and both
// fault-model workloads.
func TestOneShardMatchesSequential(t *testing.T) {
	cases := map[string]struct {
		golden string
		mutate func(*Config)
	}{
		"uniform":      {"distributed", func(c *Config) {}},
		"zipf":         {"distributed/zipf", func(c *Config) { c.ZipfS = 1.3 }},
		"partialavail": {"distributed/partialavail", func(c *Config) { c.Availability = 0.7 }},
		"faults-drop":  {"distributed/faults-drop", func(c *Config) { c.Faults = faults.FromRate(faults.ModelDrop, 0.05) }},
		"faults-ge": {"distributed/faults-ge", func(c *Config) {
			c.Faults = faults.FromRate(faults.ModelGilbertElliott, 0.4)
			c.Faults.Recovery = faults.RecoverNextCycle
			c.Faults.MaxRetries = 4
		}},
	}
	golden := readGolden(t)
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			key := tc.golden + "/shards=1"
			for _, shards := range []int{0, 1} {
				cfg := smallConfig("distributed", 300)
				cfg.Shards = shards
				tc.mutate(&cfg)
				res, err := RunOne(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := formatGolden(key, res); got != golden[key] {
					t.Fatalf("shards=%d diverged from the sequential stream:\nwant: %s\ngot:  %s", shards, golden[key], got)
				}
			}
		})
	}
}

// TestFourShardsAgreeWithinAccuracy: different shard counts sample
// different request streams, so results differ — but both runs converged
// to the configured confidence accuracy, so their means must agree within
// the combined half-widths (2x the per-run accuracy bound).
func TestFourShardsAgreeWithinAccuracy(t *testing.T) {
	cfg := smallConfig("distributed", 300)
	cfg.Accuracy = 0.05
	cfg.MinRequests = 1000
	cfg.MaxRequests = 60000
	seq, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	sharded, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Converged || !sharded.Converged {
		t.Fatalf("both runs should converge (seq %v, sharded %v)", seq.Converged, sharded.Converged)
	}
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"access", seq.Access.Mean(), sharded.Access.Mean()},
		{"tuning", seq.Tuning.Mean(), sharded.Tuning.Mean()},
	} {
		if rel := math.Abs(c.a-c.b) / c.a; rel > 2*cfg.Accuracy {
			t.Errorf("%s means disagree beyond combined accuracy: seq %v vs sharded %v (rel %v)", c.name, c.a, c.b, rel)
		}
	}
	if sharded.Requests == 0 || sharded.Rounds < 4 {
		t.Fatalf("sharded bookkeeping wrong: %+v", sharded)
	}
}

// TestShardedDeterministicAcrossGOMAXPROCS pins the determinism contract:
// for a fixed (seed, shards) pair the Result is bit-identical however
// many OS threads schedule the stream goroutines, and across repeat runs.
func TestShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := smallConfig("distributed", 300)
	cfg.Shards = 4
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	narrow, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	wide, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repeat, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(narrow, wide) {
		t.Fatalf("GOMAXPROCS changed the sharded result:\n1: %+v\n8: %+v", narrow, wide)
	}
	if !reflect.DeepEqual(wide, repeat) {
		t.Fatal("repeat sharded run differed")
	}
}

// TestRunIdempotent: a Simulator keeps no state between runs — every
// stream is rebuilt from (Seed, shard) — so calling Run twice on one
// instance returns identical Results at any shard count.
func TestRunIdempotent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := smallConfig("distributed", 300)
			cfg.Shards = shards
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			second, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("second Run on the same Simulator differed:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// TestShardedRequestCap: with convergence out of reach, shard budgets
// (which sum exactly to MaxRequests, even when it doesn't divide evenly)
// bound the run.
func TestShardedRequestCap(t *testing.T) {
	cfg := smallConfig("flat", 200)
	cfg.Accuracy = 0.001
	cfg.Confidence = 0.999
	cfg.MinRequests = 100
	cfg.MaxRequests = 1003 // not divisible by 4: budgets 251,251,251,250
	cfg.Shards = 4
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("0.1% accuracy should not converge within 1003 requests")
	}
	if res.Requests != 1003 {
		t.Fatalf("capped run served %d requests, want exactly 1003", res.Requests)
	}
}

// TestZipfSingleRecordRejected pins the validation bugfix: a Zipf
// workload over a 1-record dataset used to pass Validate and only fail at
// runtime; now it is rejected up front with a descriptive error.
func TestZipfSingleRecordRejected(t *testing.T) {
	cfg := smallConfig("flat", 1)
	cfg.ZipfS = 1.5
	err := cfg.Validate()
	if err == nil {
		t.Fatal("zipf over a single record accepted")
	}
	if !strings.Contains(err.Error(), "zipf") || !strings.Contains(err.Error(), "2 records") {
		t.Fatalf("error %q does not describe the zipf record-count requirement", err)
	}
	if _, rerr := RunOne(cfg); rerr == nil {
		t.Fatal("RunOne accepted the invalid zipf config")
	}
}

// TestZipfSmallestLegalConfig runs the smallest dataset a Zipf workload
// accepts (2 records) end to end, at one and two shards.
func TestZipfSmallestLegalConfig(t *testing.T) {
	cfg := smallConfig("flat", 2)
	cfg.ZipfS = 1.5
	cfg.Accuracy = 0.2
	cfg.MinRequests = 100
	cfg.MaxRequests = 1000
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Requests < 100 || res.Found != res.Requests {
			t.Fatalf("shards=%d: 2-record zipf run broken: %+v", shards, res)
		}
	}
}
