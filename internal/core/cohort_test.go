package core

import (
	"reflect"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
)

// runEngines runs the same configuration on the event-driven reference
// engine and on the columnar cohort engine.
func runEngines(t *testing.T, cfg Config) (events, cohort *Result) {
	t.Helper()
	ref := cfg
	ref.Engine = EngineEvents
	events, err := RunOne(ref)
	if err != nil {
		t.Fatal(err)
	}
	coh := cfg
	coh.Engine = EngineCohort
	cohort, err = RunOne(coh)
	if err != nil {
		t.Fatal(err)
	}
	return events, cohort
}

// TestCohortMatchesEventEngineAllSchemes is the cohort engine's
// differential anchor: for every registered scheme the columnar engine
// must reproduce the event engine's Result byte for byte — same request
// stream, same Welford moments, same P² tail states, same event count.
// This exercises the closed-form resolver kernel (flat, broadcast
// disks), the stepped columnar kernel with client-arena rewind
// (distributed, (1,m), hashing) and the allocate-fresh fallback
// (signature, hybrid).
func TestCohortMatchesEventEngineAllSchemes(t *testing.T) {
	for _, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			events, cohort := runEngines(t, smallConfig(scheme, 300))
			if !reflect.DeepEqual(events, cohort) {
				t.Fatalf("cohort engine diverged from event engine:\nevents: %+v\ncohort: %+v", events, cohort)
			}
		})
	}
}

// TestCohortMatchesEventEngineVariants sweeps the workload and channel
// configurations — skew, partial availability, both fault models,
// multichannel K ∈ {2,4}, faults-over-multichannel — across one and four
// shards. Every cell must be bit-identical between the engines,
// including the fault counters and Switches/SwitchWaitBytes.
func TestCohortMatchesEventEngineVariants(t *testing.T) {
	cases := map[string]func(*Config){
		"zipf":         func(c *Config) { c.ZipfS = 1.3 },
		"partialavail": func(c *Config) { c.Availability = 0.7 },
		"faults-drop":  func(c *Config) { c.Faults = faults.FromRate(faults.ModelDrop, 0.05) },
		"faults-ge": func(c *Config) {
			c.Faults = faults.FromRate(faults.ModelGilbertElliott, 0.4)
			c.Faults.Recovery = faults.RecoverNextCycle
			c.Faults.MaxRetries = 4
		},
		"multi-k2": func(c *Config) { c.Multi = multichannel.Config{Channels: 2} },
		"multi-k4": func(c *Config) { c.Multi = multichannel.Config{Channels: 4, SwitchCost: 256} },
		"multi-k2-faults": func(c *Config) {
			c.Multi = multichannel.Config{Channels: 2}
			c.Faults = faults.FromRate(faults.ModelDrop, 0.05)
			c.Faults.MaxRetries = 6
		},
	}
	for _, shards := range []int{1, 4} {
		for name, mutate := range cases {
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig("distributed", 300)
				cfg.Shards = shards
				mutate(&cfg)
				events, cohort := runEngines(t, cfg)
				if !reflect.DeepEqual(events, cohort) {
					t.Fatalf("shards=%d: cohort engine diverged from event engine:\nevents: %+v\ncohort: %+v", shards, events, cohort)
				}
			})
		}
	}
}

// TestCohortResolverSchemesUnderVariants pins the serial-scan schemes —
// whose clean path takes the closed-form resolver — under skew and
// partial availability, where the key mix (present, missing) stresses
// the resolvers' absence arithmetic.
func TestCohortResolverSchemesUnderVariants(t *testing.T) {
	for _, scheme := range []string{"flat", "broadcast-disks"} {
		for name, mutate := range map[string]func(*Config){
			"zipf":         func(c *Config) { c.ZipfS = 1.5 },
			"partialavail": func(c *Config) { c.Availability = 0.6 },
		} {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				cfg := smallConfig(scheme, 300)
				mutate(&cfg)
				events, cohort := runEngines(t, cfg)
				if !reflect.DeepEqual(events, cohort) {
					t.Fatalf("cohort engine diverged from event engine:\nevents: %+v\ncohort: %+v", events, cohort)
				}
			})
		}
	}
}

// TestCohortDeterministic: the cohort engine's Result is a pure function
// of (Seed, Shards, config), like the engines it mirrors.
func TestCohortDeterministic(t *testing.T) {
	cfg := smallConfig("hashing", 300)
	cfg.Engine = EngineCohort
	cfg.Shards = 3
	a, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical cohort configurations produced different Results")
	}
}

// TestCohortUnknownEngineRejected covers the Engine name validation.
func TestCohortUnknownEngineRejected(t *testing.T) {
	cfg := smallConfig("flat", 100)
	cfg.Engine = "columnar"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown engine name accepted")
	}
	for _, ok := range []string{"", EngineEvents, EngineCohort} {
		cfg.Engine = ok
		if err := cfg.Validate(); err != nil {
			t.Fatalf("engine %q rejected: %v", ok, err)
		}
	}
}

// TestRewindEquivalentToFreshClient pins the access.Rewinder contract
// the cohort engine's arena reuse depends on: for every scheme whose
// client implements Rewind, a rewound client must replay a walk exactly
// like a fresh one — after first being driven through an unrelated walk
// so residual state would surface.
func TestRewindEquivalentToFreshClient(t *testing.T) {
	for _, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			s, err := New(smallConfig(scheme, 250))
			if err != nil {
				t.Fatal(err)
			}
			bc := s.Broadcast()
			ch := bc.Channel()
			probe := bc.NewClient(s.Dataset().KeyAt(0))
			rw, ok := probe.(access.Rewinder)
			if !ok {
				t.Skipf("%s clients are not rewindable; cohort engine allocates fresh", scheme)
			}
			for i := 0; i < 40; i++ {
				key := s.Dataset().KeyAt((i * 7) % s.Dataset().Len())
				if i%5 == 4 {
					key = s.Dataset().MissingKeyNear(i % s.Dataset().Len())
				}
				arrival := sim150(i)
				want, err := access.Walk(ch, bc.NewClient(key), arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the reused client on some other key, then rewind.
				if _, err := access.Walk(ch, func() access.Client { rw.Rewind(s.Dataset().KeyAt(0)); return probe }(), arrival/2, 0); err != nil {
					t.Fatal(err)
				}
				rw.Rewind(key)
				got, err := access.Walk(ch, probe, arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Fatalf("key %d arrival %d: rewound client diverged: fresh %+v rewound %+v", key, arrival, want, got)
				}
			}
		})
	}
}

// TestResolverMatchesWalk pins the access.Resolver bit-identity
// obligation at the simulator level for the schemes that implement it:
// closed-form answers must equal the stepped walk for present and absent
// keys across arrival phases spanning several cycles.
func TestResolverMatchesWalk(t *testing.T) {
	for _, scheme := range []string{"flat", "broadcast-disks"} {
		t.Run(scheme, func(t *testing.T) {
			s, err := New(smallConfig(scheme, 230))
			if err != nil {
				t.Fatal(err)
			}
			bc := s.Broadcast()
			r, ok := bc.(access.Resolver)
			if !ok {
				t.Fatalf("%s should implement access.Resolver", scheme)
			}
			ch := bc.Channel()
			cyc := int64(ch.CycleLen())
			for i := 0; i < 180; i++ {
				key := s.Dataset().KeyAt((i * 13) % s.Dataset().Len())
				if i%4 == 3 {
					key = s.Dataset().MissingKeyNear(i % s.Dataset().Len())
				}
				// Arrivals sweep bucket-interior offsets, bucket edges and
				// multi-cycle bases.
				arrival := sim150(i) + sim150(int(cyc)%(i+1))
				want, err := access.Walk(ch, bc.NewClient(key), arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := r.Resolve(key, arrival)
				if !ok {
					t.Fatalf("resolver declined key %d arrival %d", key, arrival)
				}
				if want != got {
					t.Fatalf("key %d arrival %d: resolver diverged from walk:\nwalk:    %+v\nresolve: %+v", key, arrival, want, got)
				}
			}
		})
	}
}

// sim150 spreads test arrivals over uneven offsets: bucket interiors,
// bucket edges, and bases several cycles out.
func sim150(i int) sim.Time {
	return sim.Time(i*151 + i*i*37 + 11)
}
