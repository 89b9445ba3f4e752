package core

import (
	"reflect"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
)

// addResult folds one completed request into the accumulator, the
// reference for foldCohort's bulk fold: Welford and P² updates are
// order-sensitive, so the field order here is part of the determinism
// contract.
func (a *shardAccum) addResult(r *access.MultiResult, dozeRatio float64) {
	a.requests++
	if r.Found {
		a.found++
	} else {
		a.notFound++
	}
	a.access.Add(float64(r.Access))
	a.tuning.Add(float64(r.Tuning))
	a.energy.Add(float64(r.Tuning) + dozeRatio*float64(r.Access-r.Tuning))
	a.probes.Add(float64(r.Probes))
	a.restarts += int64(r.Restarts)
	a.wasted += int64(r.Wasted)
	if r.Unrecovered {
		a.unrecovered++
	}
	a.switches += int64(r.Switches)
	a.switchWait += int64(r.SwitchWait)
	a.accessP95.Add(float64(r.Access))
	a.accessP99.Add(float64(r.Access))
	a.tuningP95.Add(float64(r.Tuning))
	a.tuningP99.Add(float64(r.Tuning))
}

// referenceRun is the differential oracle for Run: the per-request loop
// the batched rounds replace. Streams take turns in waves, one arrival
// at a time in the RNG order key, walk, gap; each request walks a fresh
// client through Simulator.walk — no resolver, no arena, no rewind — and
// is folded by addResult. Only the merge and the stopping rule are Run's.
func referenceRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := max(cfg.Shards, 1)
	streams := make([]*stream, n)
	accs := make([]*shardAccum, n)
	for i := range streams {
		streams[i] = s.newStream(i, n)
		accs[i] = &streams[i].shardAccum
	}
	for {
		waveComplete := true
		for _, st := range streams {
			if st.done {
				continue
			}
			served := 0
			for ; served < cfg.RoundSize && st.requests < st.budget; served++ {
				key := s.pickKey(st)
				r, err := s.walk(st, func() access.Client { return s.bc.NewClient(key) }, st.next)
				if err != nil {
					t.Fatal(err)
				}
				st.addResult(&r, cfg.DozePowerRatio)
				st.next += st.rng.Exponential(cfg.RequestMean)
			}
			if served == cfg.RoundSize {
				st.rounds++
			} else {
				waveComplete = false
			}
			st.done = st.requests >= st.budget
		}
		merged := s.mergeShards(accs)
		capped := merged.Requests >= int64(cfg.MaxRequests)
		if !waveComplete && !capped {
			continue
		}
		merged.Converged = s.accuracyMet(merged) && merged.Requests >= int64(cfg.MinRequests)
		if merged.Converged || capped {
			return merged
		}
	}
}

// runBoth runs cfg through Run and through the reference loop.
func runBoth(t *testing.T, cfg Config) (ref, got *Result) {
	t.Helper()
	got, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return referenceRun(t, cfg), got
}

// TestCohortMatchesEventEngineAllSchemes is the engine's differential
// anchor: for every registered scheme, at one and four shards, Run must
// reproduce the one-request-at-a-time reference loop's Result byte for
// byte — same request stream, same Welford moments, same P² tail states,
// same event count. This exercises the closed-form resolver kernel
// (flat, broadcast disks, signature) and the stepped columnar kernel
// with client-arena rewind (distributed, (1,m), hashing, hybrid, the
// signature extensions).
func TestCohortMatchesEventEngineAllSchemes(t *testing.T) {
	for _, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				cfg := smallConfig(scheme, 300)
				cfg.Shards = shards
				ref, got := runBoth(t, cfg)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("shards=%d: Run diverged from the reference loop:\nreference: %+v\nrun:       %+v", shards, ref, got)
				}
			}
		})
	}
}

// TestCohortMatchesEventEngineVariants sweeps the workload and channel
// configurations — skew, partial availability, both fault models,
// multichannel K ∈ {2,4}, faults-over-multichannel — across one and four
// shards. Every cell must be bit-identical to the reference loop,
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
				ref, got := runBoth(t, cfg)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("shards=%d: Run diverged from the reference loop:\nreference: %+v\nrun:       %+v", shards, ref, got)
				}
			})
		}
	}
}

// TestCohortResolverSchemesUnderVariants pins the serial-scan schemes —
// whose clean path takes the closed-form resolver — under skew and
// partial availability, where the key mix (present, missing) stresses
// the resolvers' absence arithmetic against the reference loop's walks.
func TestCohortResolverSchemesUnderVariants(t *testing.T) {
	for _, scheme := range []string{"flat", "broadcast-disks", "signature"} {
		for name, mutate := range map[string]func(*Config){
			"zipf":         func(c *Config) { c.ZipfS = 1.5 },
			"partialavail": func(c *Config) { c.Availability = 0.6 },
		} {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				cfg := smallConfig(scheme, 300)
				mutate(&cfg)
				ref, got := runBoth(t, cfg)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("Run diverged from the reference loop:\nreference: %+v\nrun:       %+v", ref, got)
				}
			})
		}
	}
}

// TestEngineValueIgnored: Config.Engine no longer selects anything, so
// every value — the two old names, empty, or anything else — passes
// Validate and yields the same Result.
func TestEngineValueIgnored(t *testing.T) {
	cfg := smallConfig("hashing", 300)
	want, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{EngineEvents, EngineCohort, "columnar"} {
		cfg.Engine = engine
		got, err := RunOne(cfg)
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("engine %q changed the Result", engine)
		}
	}
}

// TestCohortDeterministic: a sharded Result is a pure function of
// (Seed, Shards, config).
func TestCohortDeterministic(t *testing.T) {
	cfg := smallConfig("hashing", 300)
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
			bc := s.bc
			ch := bc.Channel()
			probe := bc.NewClient(s.ds.KeyAt(0))
			rw, ok := probe.(access.Rewinder)
			if !ok {
				t.Skipf("%s clients are not rewindable; the engine allocates fresh", scheme)
			}
			for i := 0; i < 40; i++ {
				key := s.ds.KeyAt((i * 7) % s.ds.Len())
				if i%5 == 4 {
					key = s.ds.MissingKeyNear(i % s.ds.Len())
				}
				arrival := sim150(i)
				want, err := access.Walk(ch, bc.NewClient(key), arrival, 0)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the reused client on some other key, then rewind.
				if _, err := access.Walk(ch, func() access.Client { rw.Rewind(s.ds.KeyAt(0)); return probe }(), arrival/2, 0); err != nil {
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
	for _, scheme := range []string{"flat", "broadcast-disks", "signature"} {
		t.Run(scheme, func(t *testing.T) {
			s, err := New(smallConfig(scheme, 230))
			if err != nil {
				t.Fatal(err)
			}
			bc := s.bc
			r, ok := bc.(access.Resolver)
			if !ok {
				t.Fatalf("%s should implement access.Resolver", scheme)
			}
			ch := bc.Channel()
			cyc := int64(ch.CycleLen())
			for i := 0; i < 180; i++ {
				key := s.ds.KeyAt((i * 13) % s.ds.Len())
				if i%4 == 3 {
					key = s.ds.MissingKeyNear(i % s.ds.Len())
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
