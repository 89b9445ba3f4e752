package core

import (
	"math"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// smallConfig keeps unit-test runs fast.
func smallConfig(scheme string, records int) Config {
	cfg := DefaultConfig(scheme, records)
	cfg.RoundSize = 100
	cfg.MinRequests = 200
	cfg.MaxRequests = 5000
	cfg.Accuracy = 0.05
	return cfg
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := DefaultConfig("flat", 100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Scheme = "nope" },
		func(c *Config) { c.Availability = 1.5 },
		func(c *Config) { c.Availability = -0.1 },
		func(c *Config) { c.RequestMean = 0 },
		func(c *Config) { c.RoundSize = 1 },
		func(c *Config) { c.Confidence = 1 },
		func(c *Config) { c.Accuracy = 0 },
		func(c *Config) { c.MaxRequests = 10 },
		func(c *Config) { c.Data.NumRecords = 0 },
		func(c *Config) { c.Shards = -1 },
		func(c *Config) { c.Shards = c.MaxRequests + 1 },
		func(c *Config) { c.MinRequests = c.MaxRequests + 1 },
		func(c *Config) { c.Faults = faults.FromRate(faults.ModelDrop, 1.5) },
		func(c *Config) { c.ZipfS = 1.5; c.Data.NumRecords = 1 },
	}
	// NaN fails every range check, and ±Inf is out of every range.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mutations = append(mutations,
			func(c *Config) { c.Availability = v },
			func(c *Config) { c.RequestMean = v },
			func(c *Config) { c.Confidence = v },
			func(c *Config) { c.Accuracy = v },
			func(c *Config) { c.ZipfS = v },
			func(c *Config) { c.DozePowerRatio = v },
			func(c *Config) { c.Faults = faults.FromRate(faults.ModelDrop, v) },
		)
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig("flat", 100)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
}

func TestSchemeNamesComplete(t *testing.T) {
	names := SchemeNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"flat", "(1,m)", "distributed", "hashing", "signature", "signature-integrated", "signature-multilevel"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scheme %q missing from registry (%s)", want, joined)
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	build := func(*datagen.Dataset, Config) (access.Broadcast, error) { return nil, nil }
	if err := Register(Scheme{Name: "flat"}); err == nil {
		t.Fatal("nil builder accepted")
	}
	if err := Register(Scheme{Build: build}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(Scheme{Name: "flat", Build: build}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestRunEverySchemeConverges(t *testing.T) {
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res, err := RunOne(smallConfig(scheme, 400))
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests < 200 {
				t.Fatalf("only %d requests ran", res.Requests)
			}
			if res.Found != res.Requests {
				t.Fatalf("%d of %d requests failed at availability 1", res.NotFound, res.Requests)
			}
			if res.Access.Mean() <= 0 || res.Tuning.Mean() <= 0 {
				t.Fatal("zero means")
			}
			if res.Access.Mean() < res.Tuning.Mean() {
				t.Fatalf("mean access %v below mean tuning %v", res.Access.Mean(), res.Tuning.Mean())
			}
			if res.CycleBytes <= 0 || res.Rounds < 1 {
				t.Fatalf("result bookkeeping wrong: %+v", res)
			}
		})
	}
}

// TestNewOnRejectsForeignDataset: a simulator built over a dataset must
// run on exactly the data its config describes.
func TestNewOnRejectsForeignDataset(t *testing.T) {
	cfg := smallConfig("flat", 300)
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOn(ds, cfg); err != nil {
		t.Fatalf("NewOn over the config's own dataset: %v", err)
	}
	other := cfg
	other.Data.Seed++
	if _, err := NewOn(ds, other); err == nil {
		t.Fatal("NewOn accepted a dataset generated from another data config")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := smallConfig("distributed", 300)
	a, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Access.Mean() != b.Access.Mean() || a.Tuning.Mean() != b.Tuning.Mean() {
		t.Fatal("same seed produced different results")
	}
	cfg.Seed = 43
	c, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Access.Mean() == c.Access.Mean() && a.Requests == c.Requests {
		t.Fatal("different seed produced identical results (suspicious)")
	}
}

func TestAccuracyControllerTightensWithMoreRequests(t *testing.T) {
	cfg := smallConfig("flat", 200)
	cfg.Accuracy = 0.01
	cfg.MinRequests = 500
	cfg.MaxRequests = 100000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("flat run should converge at 1%% accuracy within %d requests (got %d)", cfg.MaxRequests, res.Requests)
	}
	acc, ok := res.Access.Accuracy(cfg.Confidence)
	if !ok || acc > cfg.Accuracy {
		t.Fatalf("reported accuracy %v exceeds target %v", acc, cfg.Accuracy)
	}
}

func TestAvailabilityZeroAllSearchesFail(t *testing.T) {
	cfg := smallConfig("distributed", 300)
	cfg.Availability = 0
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != 0 || res.NotFound != res.Requests {
		t.Fatalf("availability 0: found=%d notfound=%d", res.Found, res.NotFound)
	}
}

func TestAvailabilityHalfRoughlySplits(t *testing.T) {
	cfg := smallConfig("hashing", 300)
	cfg.Availability = 0.5
	cfg.MinRequests = 2000
	cfg.MaxRequests = 4000
	cfg.Accuracy = 0.2
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Found) / float64(res.Requests)
	if math.Abs(frac-0.5) > 0.08 {
		t.Fatalf("found fraction %v, want about 0.5", frac)
	}
}

func TestFlatMeansMatchHalfCycle(t *testing.T) {
	cfg := smallConfig("flat", 500)
	cfg.MinRequests = 3000
	cfg.MaxRequests = 20000
	cfg.Accuracy = 0.02
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := float64(res.CycleBytes) / 2
	if got := res.Access.Mean(); math.Abs(got-half)/half > 0.1 {
		t.Fatalf("flat mean access %v, want about %v", got, half)
	}
	if got := res.Tuning.Mean(); math.Abs(got-half)/half > 0.1 {
		t.Fatalf("flat mean tuning %v, want about %v", got, half)
	}
}

func TestBitErrorInjectionCausesRestartsAndSlowdown(t *testing.T) {
	clean := smallConfig("distributed", 300)
	clean.MinRequests = 1000
	faulty := clean
	faulty.Faults = faults.FromRate(faults.ModelDrop, 0.2)
	cr, err := RunOne(clean)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunOne(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Restarts != 0 {
		t.Fatalf("clean run had %d restarts", cr.Restarts)
	}
	if fr.Restarts == 0 {
		t.Fatal("20% error rate produced no restarts")
	}
	if fr.Tuning.Mean() <= cr.Tuning.Mean() {
		t.Fatalf("errors should raise tuning: clean %v faulty %v", cr.Tuning.Mean(), fr.Tuning.Mean())
	}
	if fr.Found != fr.Requests {
		t.Fatal("restarting clients must still find every present key")
	}
}

// TestValidateChecksActiveSchemeOptions: Validate runs the options check
// of the configured scheme, and only of that scheme.
func TestValidateChecksActiveSchemeOptions(t *testing.T) {
	for _, c := range []struct {
		scheme string
		bad    func(*Config)
	}{
		{"(1,m)", func(c *Config) { c.Onem.M = -1 }},
		{"hashing", func(c *Config) { c.Hashing.LoadFactor = 0.5 }},
		{"signature", func(c *Config) { c.Signature.BitsPerField = c.Signature.SigBytes*8 + 1 }},
		{"signature-integrated", func(c *Config) { c.Signature.GroupSize = 0 }},
		{"signature-multilevel", func(c *Config) { c.Signature.GroupSigBytes = 0 }},
		{"hybrid", func(c *Config) { c.Hybrid.GroupSize = 0 }},
		{"broadcast-disks", func(c *Config) { c.Bdisk.RelFreq = nil }},
	} {
		cfg := DefaultConfig(c.scheme, 100)
		c.bad(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid options", c.scheme)
		}
		cfg.Scheme = "flat"
		if err := cfg.Validate(); err != nil {
			t.Errorf("flat rejected %s's options: %v", c.scheme, err)
		}
	}
}

// TestRunOneErrorPrefixOnce: RunOne hands back Validate's error as it
// is, so its package prefix appears once.
func TestRunOneErrorPrefixOnce(t *testing.T) {
	cfg := DefaultConfig("flat", 100)
	cfg.Availability = 2
	_, err := RunOne(cfg)
	if err == nil || err.Error() != "core: availability 2 outside [0,1]" {
		t.Fatalf("got %v, want core: availability 2 outside [0,1]", err)
	}
}

func TestRunOneRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig("flat", 100)
	cfg.Scheme = "bogus"
	if _, err := RunOne(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCustomSchemeRegistration(t *testing.T) {
	// The adaptability claim: plug in a trivial custom scheme and run it
	// through the same testbed.
	name := "test-custom"
	if _, done := lookupScheme(name, false); !done { // a -count rerun registered it
		err := Register(Scheme{Name: name, Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return newEchoBroadcast(ds), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunOne(smallConfig(name, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Found != res.Requests {
		t.Fatalf("custom scheme run broken: %+v", res)
	}
}

// echoBroadcast is a renamed flat broadcast used to exercise Register.
type echoBroadcast struct {
	access.Broadcast
}

func newEchoBroadcast(ds *datagen.Dataset) access.Broadcast {
	cfg := DefaultConfig("flat", ds.Len())
	cfg.Data = ds.Config()
	b, err := BuildBroadcast(ds, cfg)
	if err != nil {
		panic(err)
	}
	return &echoBroadcast{Broadcast: b}
}

func (e *echoBroadcast) Name() string { return "test-custom" }

func TestTailQuantilesPlausible(t *testing.T) {
	cfg := smallConfig("flat", 400)
	cfg.MinRequests = 2000
	cfg.MaxRequests = 4000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// For flat broadcast access is ~uniform over the cycle: p95 ~ 0.95 of
	// the cycle, p99 above p95, both above the mean and below the max.
	if !(res.Access.Mean() < res.AccessP95 && res.AccessP95 < res.AccessP99) {
		t.Fatalf("quantile ordering broken: mean=%v p95=%v p99=%v",
			res.Access.Mean(), res.AccessP95, res.AccessP99)
	}
	if res.AccessP99 > res.Access.Max()*1.01 {
		t.Fatalf("p99 %v above observed max %v", res.AccessP99, res.Access.Max())
	}
	want := 0.95 * float64(res.CycleBytes)
	if r := res.AccessP95 / want; r < 0.9 || r > 1.1 {
		t.Fatalf("flat access p95 %v, want about %v", res.AccessP95, want)
	}
	if !(res.TuningP95 > res.Tuning.Mean()) {
		t.Fatalf("tuning p95 %v not above mean %v", res.TuningP95, res.Tuning.Mean())
	}
}

func TestEnergyCriterion(t *testing.T) {
	base := smallConfig("distributed", 300)
	base.MinRequests = 1000

	// Pure tuning accounting (the paper's model): energy == tuning.
	r0, err := RunOne(base)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Energy.Mean() != r0.Tuning.Mean() {
		t.Fatalf("zero doze power: energy %v != tuning %v", r0.Energy.Mean(), r0.Tuning.Mean())
	}

	// 2% doze draw: energy sits strictly between tuning and access, and
	// for a tree scheme the doze term dominates (dozing spans almost the
	// whole wait).
	withDoze := base
	withDoze.DozePowerRatio = 0.02
	r1, err := RunOne(withDoze)
	if err != nil {
		t.Fatal(err)
	}
	if !(r1.Energy.Mean() > r1.Tuning.Mean() && r1.Energy.Mean() < r1.Access.Mean()) {
		t.Fatalf("energy %v outside (tuning %v, access %v)", r1.Energy.Mean(), r1.Tuning.Mean(), r1.Access.Mean())
	}
	if r1.Energy.Mean() < 1.5*r1.Tuning.Mean() {
		t.Fatalf("2%% doze draw should add materially to a tree scheme's energy: %v vs tuning %v",
			r1.Energy.Mean(), r1.Tuning.Mean())
	}

	bad := base
	bad.DozePowerRatio = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("doze power ratio above 1 accepted")
	}
}

// TestChannelSizesMatchBuckets pins the channel's size table to the
// buckets it was built from: for every registered scheme's cycle, SizeOf
// and EndGiven must read each bucket's own Size, so a cached size can
// never drift from the bytes the bucket encodes.
func TestChannelSizesMatchBuckets(t *testing.T) {
	for _, scheme := range SchemeNames() {
		s, err := New(smallConfig(scheme, 250))
		if err != nil {
			t.Fatal(err)
		}
		ch := s.bc.Channel()
		var total units.ByteCount
		for i := 0; i < int(ch.NumBuckets()); i++ {
			idx := units.Index(i)
			size := ch.Bucket(idx).Size()
			if got := ch.SizeOf(idx); got != size {
				t.Fatalf("%s bucket %d: SizeOf %d, Size %d", scheme, i, got, size)
			}
			at := sim.Time(i*977 + 13)
			if got := ch.EndGiven(idx, at); got != at+size.Span() {
				t.Fatalf("%s bucket %d: EndGiven(%d) = %d, want %d", scheme, i, at, got, at+size.Span())
			}
			total += size
		}
		if total != ch.CycleLen() {
			t.Fatalf("%s: bucket sizes sum to %d, cycle is %d", scheme, total, ch.CycleLen())
		}
	}
}
