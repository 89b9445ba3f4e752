// Paper-scale structural checks: the full ~35,000-record dictionary
// database of the paper's §4.1, every scheme built over it, and spot
// queries. Kept out of -short runs.
package airindex

import (
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

func TestPaperScaleBroadcasts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every scheme at 35,000 records")
	}
	const records = 35000
	ds, err := datagen.Generate(datagen.Default(records))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for _, scheme := range core.SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := core.DefaultConfig(scheme, records)
			bc, err := core.BuildBroadcast(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ch := bc.Channel()
			if int(ch.NumBuckets()) < records {
				t.Fatalf("cycle has %d buckets for %d records", ch.NumBuckets(), records)
			}
			// The data payload alone is 17.5 MB; overhead must stay within
			// a small factor for every scheme.
			if ch.CycleLen() > units.Bytes(records).Times(4*500) {
				t.Fatalf("cycle %d bytes is implausibly large", ch.CycleLen())
			}
			for q := 0; q < 25; q++ {
				rec := rng.Intn(records)
				arrival := sim.Time(rng.Int63n(int64(ch.CycleLen())))
				res, err := access.Walk(ch, bc.NewClient(ds.KeyAt(rec)), arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Found {
					t.Fatalf("key %d not found at paper scale", ds.KeyAt(rec))
				}
			}
			res, err := access.Walk(ch, bc.NewClient(ds.MissingKeyNear(17000)), 99, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				t.Fatal("missing key found at paper scale")
			}
		})
	}
}

// TestPaperScaleTreeGeometry pins the concrete index geometry the default
// Table 1 settings induce at full scale, so accidental layout changes are
// visible in review.
func TestPaperScaleTreeGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tree schemes at 35,000 records")
	}
	ds, err := datagen.Generate(datagen.Default(35000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig("distributed", 35000)
	bc, err := core.BuildBroadcast(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := bc.Params()
	// The fanout/depth fixpoint lands on 13 entries per bucket and a
	// 5-level tree for 35,000 records.
	if p["fanout"] != 13 || p["levels"] != 5 {
		t.Errorf("500B records / 25B keys should give fanout 13, 5 levels; got %v/%v (update EXPERIMENTS.md if intentional)",
			p["fanout"], p["levels"])
	}
	if p["bucket_size"] != 513 {
		t.Errorf("bucket size %v, want 513", p["bucket_size"])
	}
}

// TestPaperScaleCohortMillionClients is the batched kernels' acceptance
// point: one million requests at the Figure-4 midpoint geometry run to
// completion through the columnar kernels in a couple of seconds, with
// the exact request count the cap forces and the flat half-cycle means.
// The bit-identity with a one-request-at-a-time loop is pinned in-tree
// at small N by internal/core's differential suite, where the reference
// loop is affordable.
func TestPaperScaleCohortMillionClients(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1,000,000 requests")
	}
	cfg := core.DefaultConfig("flat", 17500)
	cfg.MinRequests = 1_000_000
	cfg.MaxRequests = 1_000_000
	res, err := core.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1_000_000 || res.Found != res.Requests {
		t.Fatalf("ran %d requests, found %d; want exactly 1,000,000 found", res.Requests, res.Found)
	}
	half := float64(res.CycleBytes) / 2
	if got := res.Access.Mean(); got < 0.99*half || got > 1.01*half {
		t.Fatalf("flat mean access %v at 10^6 requests, want within 1%% of half cycle %v", got, half)
	}
}
