package core

import (
	"reflect"
	"testing"

	"github.com/airindex/airindex/internal/faults"
)

// TestZeroRateFaultsReproducePerfectChannel: an enabled model with every
// rate at zero takes the WalkRecover code path but must reproduce the
// perfect-channel Result byte for byte — the faults substream never
// touches the arrival RNG.
func TestZeroRateFaultsReproducePerfectChannel(t *testing.T) {
	for _, scheme := range []string{"flat", "distributed", "hashing", "signature", "(1,m)"} {
		t.Run(scheme, func(t *testing.T) {
			base := smallConfig(scheme, 300)
			perfect, err := RunOne(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []faults.ModelKind{faults.ModelIID, faults.ModelGilbertElliott, faults.ModelDrop} {
				cfg := base
				cfg.Faults = faults.FromRate(model, 0)
				got, err := RunOne(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(perfect, got) {
					t.Fatalf("zero-rate %v model diverged from the perfect channel:\nperfect: %+v\nfaults:  %+v", model, perfect, got)
				}
			}
		})
	}
}

// TestFaultyRunDeterministic: for a fixed (seed, shards, faultcfg) the
// Result is bit-identical across repeated runs, sequentially and sharded.
func TestFaultyRunDeterministic(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := smallConfig("distributed", 300)
		cfg.Shards = shards
		cfg.Faults = faults.FromRate(faults.ModelDrop, 0.05)
		a, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: identical (seed, shards, faultcfg) produced different Results", shards)
		}
		if a.Restarts == 0 {
			t.Fatalf("shards=%d: drop rate 0.05 injected no faults", shards)
		}
	}
}

// TestFaultDegradationMonotone: mean access and tuning time must not
// improve as the drop rate rises.
func TestFaultDegradationMonotone(t *testing.T) {
	rates := []float64{0, 0.02, 0.05, 0.1}
	for _, scheme := range []string{"distributed", "hashing"} {
		var prevAt, prevTt float64
		for i, rate := range rates {
			cfg := smallConfig(scheme, 300)
			cfg.Faults = faults.FromRate(faults.ModelDrop, rate)
			res, err := RunOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			at, tt := res.Access.Mean(), res.Tuning.Mean()
			if i > 0 && (at < prevAt || tt < prevTt) {
				t.Fatalf("%s: degradation not monotone at rate %v: At %v -> %v, Tt %v -> %v",
					scheme, rate, prevAt, at, prevTt, tt)
			}
			prevAt, prevTt = at, tt
		}
	}
}

// TestBoundedRetriesProduceUnrecoveredMisses: with a brutal error rate and
// a tight retry budget, some requests must be abandoned, and they must be
// counted as NotFound.
func TestBoundedRetriesProduceUnrecoveredMisses(t *testing.T) {
	cfg := smallConfig("distributed", 300)
	cfg.Faults = faults.Config{Model: faults.ModelDrop, Rate: 0.5, MaxRetries: 2}
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unrecovered == 0 {
		t.Fatal("drop rate 0.5 with MaxRetries 2 abandoned no requests")
	}
	if res.Unrecovered > res.NotFound {
		t.Fatalf("Unrecovered %d exceeds NotFound %d; misses must be a subset", res.Unrecovered, res.NotFound)
	}
	if res.WastedBytes == 0 {
		t.Fatal("corrupted reads reported no wasted tuning bytes")
	}
}
