// Cross-scheme integration tests: every access method, driven through the
// same public surfaces the examples use, against one shared dataset. These
// complement the per-package unit tests with properties that must hold for
// any scheme the testbed accepts.
package airindex

import (
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// buildAll constructs every registered scheme over one dataset.
func buildAll(t *testing.T, records int) (*datagen.Dataset, map[string]access.Broadcast) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Default(records))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]access.Broadcast)
	for _, name := range core.SchemeNames() {
		cfg := core.DefaultConfig(name, records)
		bc, err := core.BuildBroadcast(ds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = bc
	}
	return ds, out
}

func TestEverySchemeCorrectness(t *testing.T) {
	ds, schemes := buildAll(t, 700)
	rng := sim.NewRNG(2026)
	for name, bc := range schemes {
		name, bc := name, bc
		t.Run(name, func(t *testing.T) {
			cycle := int64(bc.Channel().CycleLen())
			for i := 0; i < ds.Len(); i += 7 {
				arrival := sim.Time(rng.Int63n(2 * cycle))
				res, err := access.Walk(bc.Channel(), bc.NewClient(ds.KeyAt(i)), arrival, 0)
				if err != nil {
					t.Fatalf("key %d: %v", ds.KeyAt(i), err)
				}
				if !res.Found {
					t.Fatalf("present key %d not found", ds.KeyAt(i))
				}
				if res.Tuning > res.Access {
					t.Fatalf("tuning %d exceeds access %d (cannot listen longer than you wait)", res.Tuning, res.Access)
				}
				if res.Access > units.Bytes64(3*cycle) {
					t.Fatalf("access %d exceeds three cycles", res.Access)
				}
				// A present key is never "found" without downloading at
				// least its own record's bytes.
				if res.Tuning < units.Bytes(ds.Config().RecordSize) {
					t.Fatalf("tuning %d below one record size", res.Tuning)
				}
			}
			for i := 3; i < ds.Len(); i += 31 {
				arrival := sim.Time(rng.Int63n(2 * cycle))
				res, err := access.Walk(bc.Channel(), bc.NewClient(ds.MissingKeyNear(i)), arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Found {
					t.Fatalf("missing key near %d reported found", i)
				}
			}
		})
	}
}

func TestEverySchemeWireSizes(t *testing.T) {
	_, schemes := buildAll(t, 300)
	for name, bc := range schemes {
		ch := bc.Channel()
		var total int64
		for i := 0; i < int(ch.NumBuckets()); i++ {
			bk := ch.Bucket(units.Index(i))
			enc := bk.Encode()
			if units.Bytes(len(enc)) != bk.Size() {
				t.Fatalf("%s bucket %d: Encode()=%d bytes, Size()=%d", name, i, len(enc), bk.Size())
			}
			total += int64(len(enc))
		}
		if units.Bytes64(total) != ch.CycleLen() {
			t.Fatalf("%s: encoded cycle %d bytes, channel says %d", name, total, ch.CycleLen())
		}
	}
}

func TestEverySchemeParamsAndContains(t *testing.T) {
	ds, schemes := buildAll(t, 300)
	for name, bc := range schemes {
		if bc.Name() != name {
			t.Fatalf("registry name %q != scheme name %q", name, bc.Name())
		}
		p := bc.Params()
		if p["records"] != float64(ds.Len()) || p["cycle_bytes"] != float64(bc.Channel().CycleLen()) {
			t.Fatalf("%s params incomplete: %v", name, p)
		}
		if !bc.Contains(ds.KeyAt(42)) || bc.Contains(ds.MissingKeyNear(42)) {
			t.Fatalf("%s Contains wrong", name)
		}
	}
}

// TestSchemeTradeoffsOnCommonWorkload pins the paper's central qualitative
// claim on one shared dataset: indexing buys orders of magnitude of tuning
// time for a bounded access-time overhead.
func TestSchemeTradeoffsOnCommonWorkload(t *testing.T) {
	const records = 2500
	means := map[string][2]float64{}
	for _, name := range []string{"flat", "(1,m)", "distributed", "hashing", "signature"} {
		cfg := core.DefaultConfig(name, records)
		cfg.Accuracy = 0.03
		cfg.MinRequests = 1500
		cfg.MaxRequests = 15000
		res, err := core.RunOne(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		means[name] = [2]float64{res.Access.Mean(), res.Tuning.Mean()}
	}
	flatMeans := means["flat"]
	for _, name := range []string{"(1,m)", "distributed", "hashing"} {
		m := means[name]
		if m[1] > flatMeans[1]/50 {
			t.Errorf("%s tuning %.0f should be >50x below flat's %.0f", name, m[1], flatMeans[1])
		}
		if m[0] > 3*flatMeans[0] {
			t.Errorf("%s access %.0f pays more than 3x flat's %.0f", name, m[0], flatMeans[0])
		}
	}
	if sig := means["signature"]; sig[0] < flatMeans[0] {
		t.Logf("signature access %.0f below flat %.0f (within noise)", sig[0], flatMeans[0])
	}
}

// TestFaultyWalkAcrossSchemes injects bucket errors into every scheme and
// checks the recovery invariants.
func TestFaultyWalkAcrossSchemes(t *testing.T) {
	ds, schemes := buildAll(t, 400)
	for name, bc := range schemes {
		rng := sim.NewRNG(7)
		inj := faults.New(faults.FromRate(faults.ModelDrop, 0.05), 7, 0)
		found := 0
		for i := 0; i < 60; i++ {
			key := ds.KeyAt(rng.Intn(ds.Len()))
			inj.StartRequest()
			res, err := access.WalkRecover(bc.Channel(),
				func() access.Client { return bc.NewClient(key) },
				sim.Time(rng.Int63n(int64(bc.Channel().CycleLen()))), inj, access.RecoverPolicy{}, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Found {
				found++
			}
			if res.Tuning > res.Access {
				t.Fatalf("%s: faulty walk accounting broken", name)
			}
		}
		// Restarting clients must eventually succeed for present keys.
		if found < 55 {
			t.Fatalf("%s: only %d/60 faulty queries succeeded", name, found)
		}
	}
}
