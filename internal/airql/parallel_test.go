package airql

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
)

// TestSharedDatasetMatchesRunOne: runPoints hands every point of one
// record count the same generated dataset, and each point's result must
// still equal core.RunOne of its config, which generates its own.
func TestSharedDatasetMatchesRunOne(t *testing.T) {
	prog := compile(t, `
SWEEP records=1500
SWEEP scheme=flat,dist,hash,sig
TABLE t x(records)
COL "access" mean(access){scheme=flat}
`)
	ex := newExecutor(prog, Options{Fast: true, Shards: 2})
	var cfgs []core.Config
	if errs := ex.pointConfigs(func(_ int, cfg *core.Config) { cfgs = append(cfgs, *cfg) }); errs != nil {
		t.Fatal(errs)
	}
	if len(cfgs) != 4 {
		t.Fatalf("%d points, want 4", len(cfgs))
	}
	for _, cfg := range cfgs[1:] {
		if cfg.Data != cfgs[0].Data {
			t.Fatalf("points differ in data config: %+v vs %+v", cfg.Data, cfgs[0].Data)
		}
	}
	got, err := runPoints(ex.opt, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := core.RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: shared-dataset result differs from RunOne:\n got %+v\nwant %+v", cfg.Scheme, got[i], want)
		}
	}
}

// TestSharedDatasetErrorReachesEveryPoint: when generating a shared
// dataset fails, every point that shares it reports the failure under its
// own scheme @ records prefix, and a point on another dataset still runs.
func TestSharedDatasetErrorReachesEveryPoint(t *testing.T) {
	// Four-digit base-36 keys hold keys below 36^4 = 1,679,616; with gaps
	// of at least two, 600,000 records overflow them.
	bad := datagen.Config{NumRecords: 600000, RecordSize: 5, KeySize: 4, NumAttributes: 1, Seed: 1}
	_, genErr := datagen.Generate(bad)
	if genErr == nil {
		t.Fatal("the overflowing config generated without error")
	}
	var cfgs []core.Config
	for _, scheme := range []string{"flat", "hashing", "signature"} {
		cfg := fast.BaseConfig(scheme, bad.NumRecords)
		cfg.Data = bad
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, fast.BaseConfig("flat", 200))
	_, err := runPoints(fast, cfgs)
	if err == nil {
		t.Fatal("runPoints succeeded over a dataset that cannot be generated")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %v does not join per-point errors", err)
	}
	errs := joined.Unwrap()
	if len(errs) != 3 {
		t.Fatalf("%d point errors, want 3 (one per sharing point): %v", len(errs), err)
	}
	for i, e := range errs {
		prefix := fmt.Sprintf("%s @ %d records: ", cfgs[i].Scheme, bad.NumRecords)
		if !strings.HasPrefix(e.Error(), prefix) || !strings.HasSuffix(e.Error(), genErr.Error()) {
			t.Errorf("point %d error %q, want %q...%q", i, e, prefix, genErr)
		}
	}
}

// TestDatasetFamilyMatchesRunOne: points whose data configs differ only
// in the record count read prefixes of one dataset generated at the largest
// count, and each result must still equal core.RunOne of its config. A
// family whose largest count cannot be generated fails only that count.
func TestDatasetFamilyMatchesRunOne(t *testing.T) {
	var cfgs []core.Config
	for _, records := range []int{1500, 600, 1000} {
		for _, scheme := range []string{"flat", "hashing"} {
			cfgs = append(cfgs, fast.BaseConfig(scheme, records))
		}
	}
	got, err := runPoints(fast, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := core.RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s @ %d records: family-prefix result differs from RunOne:\n got %+v\nwant %+v",
				cfg.Scheme, cfg.Data.NumRecords, got[i], want)
		}
	}

	bad := datagen.Config{NumRecords: 600000, RecordSize: 5, KeySize: 4, NumAttributes: 1, Seed: 1}
	_, genErr := datagen.Generate(bad)
	small := fast.BaseConfig("flat", 200)
	small.Data = bad
	small.Data.NumRecords = 200
	big := fast.BaseConfig("flat", bad.NumRecords)
	big.Data = bad
	_, err = runPoints(fast, []core.Config{small, big})
	if want := fmt.Sprintf("flat @ %d records: %v", bad.NumRecords, genErr); genErr == nil || err == nil || err.Error() != want {
		t.Fatalf("got %v, want only %s", err, want)
	}
}

// TestRunPointErrorPrefixOnce: a failing point's error carries its
// scheme @ records prefix and the validator's own prefix, once.
func TestRunPointErrorPrefixOnce(t *testing.T) {
	cfg := fast.BaseConfig("flat", 200)
	cfg.Availability = 2
	_, err := runPoints(fast, []core.Config{cfg})
	if want := "flat @ 200 records: core: availability 2 outside [0,1]"; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}
