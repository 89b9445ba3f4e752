package airborne

import (
	"math"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// harness builds one scheme plus its airborne contract over a dataset.
type harness struct {
	ds    *datagen.Dataset
	bc    access.Broadcast
	bytes *Bytes
	c     Contract
}

func newHarness(t *testing.T, scheme string, records int) *harness {
	t.Helper()
	cfg := core.DefaultConfig(scheme, records)
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := core.BuildBroadcast(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{ds: ds, bc: bc, bytes: NewBytes(bc.Channel()), c: ContractFor(cfg.Data, bc)}
}

func (h *harness) airborneWalk(t *testing.T, scheme string, key uint64, arrival sim.Time) access.Result {
	t.Helper()
	cl, err := NewClient(scheme, h.bytes, h.c, key)
	if err != nil {
		t.Fatal(err)
	}
	res, err := access.Walk(h.bc.Channel(), cl, arrival, 0)
	if err != nil {
		t.Fatalf("airborne %s key %d arrival %d: %v", scheme, key, arrival, err)
	}
	return res
}

var paperSchemes = []string{"flat", "(1,m)", "distributed", "hashing", "signature"}

// TestAirborneFindsEveryKey proves the wire formats are self-describing:
// byte-only clients locate every record of every paper scheme.
func TestAirborneFindsEveryKey(t *testing.T) {
	for _, scheme := range paperSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			h := newHarness(t, scheme, 400)
			rng := sim.NewRNG(6)
			for i := 0; i < h.ds.Len(); i += 3 {
				arrival := sim.Time(rng.Int63n(int64(h.bc.Channel().CycleLen())))
				res := h.airborneWalk(t, scheme, h.ds.KeyAt(i), arrival)
				if !res.Found {
					t.Fatalf("key %d not found from bytes alone", h.ds.KeyAt(i))
				}
				if res.Tuning > res.Access {
					t.Fatalf("accounting broken: %+v", res)
				}
			}
		})
	}
}

func TestAirborneMissingKeysFail(t *testing.T) {
	for _, scheme := range paperSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			h := newHarness(t, scheme, 300)
			rng := sim.NewRNG(8)
			for i := 0; i < h.ds.Len(); i += 17 {
				arrival := sim.Time(rng.Int63n(int64(h.bc.Channel().CycleLen())))
				res := h.airborneWalk(t, scheme, h.ds.MissingKeyNear(i), arrival)
				if res.Found {
					t.Fatalf("missing key near %d reported found", i)
				}
			}
			for _, key := range []uint64{1, h.ds.MaxKey() + 99} {
				res := h.airborneWalk(t, scheme, key, 42)
				if res.Found {
					t.Fatalf("out-of-range key %d reported found", key)
				}
			}
		})
	}
}

// TestDifferentialAgainstMetadataClients drives the byte-driven and
// metadata clients over identical channels and queries. Outcomes must
// agree exactly; the serial schemes must also agree on every byte of
// accounting, while the selectively tuning schemes may differ bounded-ly
// where the wire protocol takes the paper's next-cycle shortcut instead of
// the metadata client's direct steering.
func TestDifferentialAgainstMetadataClients(t *testing.T) {
	for _, scheme := range paperSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			h := newHarness(t, scheme, 500)
			rng := sim.NewRNG(99)
			cycle := int64(h.bc.Channel().CycleLen())
			var sumMetaA, sumWireA, sumMetaT, sumWireT float64
			const n = 400
			for q := 0; q < n; q++ {
				var key uint64
				if q%5 == 4 {
					key = h.ds.MissingKeyNear(rng.Intn(h.ds.Len()))
				} else {
					key = h.ds.KeyAt(rng.Intn(h.ds.Len()))
				}
				arrival := sim.Time(rng.Int63n(2 * cycle))
				meta, err := access.Walk(h.bc.Channel(), h.bc.NewClient(key), arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				aero := h.airborneWalk(t, scheme, key, arrival)
				if meta.Found != aero.Found {
					t.Fatalf("key %d arrival %d: found %v (metadata) vs %v (airborne)",
						key, arrival, meta.Found, aero.Found)
				}
				switch scheme {
				case "flat", "signature", "hashing":
					// These protocols are identical step for step.
					if meta != aero {
						t.Fatalf("key %d arrival %d: metadata %+v != airborne %+v", key, arrival, meta, aero)
					}
				default:
					// Tree schemes: both must stay within three cycles.
					if aero.Access > units.Bytes64(3*cycle) || meta.Access > units.Bytes64(3*cycle) {
						t.Fatalf("access out of bounds: meta %+v aero %+v", meta, aero)
					}
				}
				sumMetaA += float64(meta.Access)
				sumWireA += float64(aero.Access)
				sumMetaT += float64(meta.Tuning)
				sumWireT += float64(aero.Tuning)
			}
			// Aggregate behaviour must match closely even where individual
			// walks diverge.
			if r := sumWireA / sumMetaA; math.Abs(r-1) > 0.12 {
				t.Fatalf("mean access ratio airborne/metadata = %.3f", r)
			}
			if r := sumWireT / sumMetaT; math.Abs(r-1) > 0.25 {
				t.Fatalf("mean tuning ratio airborne/metadata = %.3f", r)
			}
		})
	}
}

func TestNewClientUnknownScheme(t *testing.T) {
	h := newHarness(t, "flat", 50)
	if _, err := NewClient("bogus", h.bytes, h.c, 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestBytesCache(t *testing.T) {
	h := newHarness(t, "flat", 50)
	a := h.bytes.Of(3)
	b := h.bytes.Of(3)
	if &a[0] != &b[0] {
		t.Fatal("encode cache not reused")
	}
	if h.bytes.NumBuckets() != h.bc.Channel().NumBuckets() {
		t.Fatal("NumBuckets mismatch")
	}
}
