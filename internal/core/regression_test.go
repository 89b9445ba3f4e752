package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestValidateRejectsMinAboveMax is the regression test for the
// validation gap where MinRequests > MaxRequests was accepted: the cap
// fires before the stopping rule can hold, silently making Converged
// unreachable. The boundary case MinRequests == MaxRequests stays legal
// — it forces an exact request count, which the bench gate relies on.
func TestValidateRejectsMinAboveMax(t *testing.T) {
	cfg := DefaultConfig("flat", 100)
	cfg.MinRequests = cfg.MaxRequests + 1
	err := cfg.Validate()
	if err == nil {
		t.Fatal("MinRequests > MaxRequests accepted")
	}
	if !strings.Contains(err.Error(), "min requests") || !strings.Contains(err.Error(), "max requests") {
		t.Fatalf("rejection should name both bounds: %v", err)
	}
	cfg.MinRequests = cfg.MaxRequests
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MinRequests == MaxRequests should be legal: %v", err)
	}
}

// TestValidateShardsMessage is the regression test for the shards
// validation message, which claimed "must be positive (or 0 ...)" while
// only firing for negatives and conflating 0 with 1: 0 and 1 are both
// legal and equivalent, and the message must say what the check does.
func TestValidateShardsMessage(t *testing.T) {
	cfg := DefaultConfig("flat", 100)
	cfg.Shards = -1
	err := cfg.Validate()
	if err == nil {
		t.Fatal("negative shards accepted")
	}
	if !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative-shards rejection should say non-negative: %v", err)
	}
	for _, ok := range []int{0, 1, 2} {
		cfg.Shards = ok
		if err := cfg.Validate(); err != nil {
			t.Fatalf("shards=%d should be legal: %v", ok, err)
		}
	}
}

// capConfig lands the request cap mid-round: RoundSize 500 with the cap
// at 1800 means the final 300 requests never reach a round boundary, so
// only the budget-exhaustion exit can report convergence.
func capConfig(accuracy float64) Config {
	cfg := DefaultConfig("flat", 300)
	cfg.RoundSize = 500
	cfg.MinRequests = 1800
	cfg.MaxRequests = 1800
	cfg.Accuracy = accuracy
	return cfg
}

// TestSequentialCapExitAppliesStoppingRule is the regression test for
// the stopping-rule gap on the cap exit: a run whose complete sample
// meets the accuracy rule exactly when the budget runs out used to
// report Converged=false. The loose-accuracy run must now converge; the
// tight-accuracy control must still not.
func TestSequentialCapExitAppliesStoppingRule(t *testing.T) {
	res, err := RunOne(capConfig(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1800 {
		t.Fatalf("cap should stop the run at 1800 requests, got %d", res.Requests)
	}
	if !res.Converged {
		t.Fatal("sample met the accuracy rule at the cap but Converged is false")
	}
	tight, err := RunOne(capConfig(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Converged {
		t.Fatal("cap exit reported convergence for a sample far outside the accuracy target")
	}
}

// TestShardedCapExitAppliesStoppingRule covers the same bugfix on the
// sharded engine's budget-exhaustion exit, where the final incomplete
// wave (budgets 667/667/666 against 500-request rounds) can never set
// waveComplete and the old code skipped the rule entirely.
func TestShardedCapExitAppliesStoppingRule(t *testing.T) {
	cfg := capConfig(0.1)
	cfg.MinRequests = 2000
	cfg.MaxRequests = 2000
	cfg.Shards = 3
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2000 {
		t.Fatalf("budgets should sum to the cap, got %d requests", res.Requests)
	}
	if !res.Converged {
		t.Fatal("merged sample met the accuracy rule at the cap but Converged is false")
	}
	tight := cfg
	tight.Accuracy = 0.0001
	ctrl, err := RunOne(tight)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Converged {
		t.Fatal("sharded cap exit reported convergence outside the accuracy target")
	}
}

// TestCapExitOneShardIdentity pins the symmetry of the fix: applying
// the stopping rule on the cap exit must preserve the one-shard
// differential identity between Run's batched rounds and the
// one-request-at-a-time reference loop even when the cap lands
// mid-round — the samples are bit-identical, so the verdicts are too.
func TestCapExitOneShardIdentity(t *testing.T) {
	cfg := capConfig(0.1)
	cfg.Shards = 1
	ref, got := runBoth(t, cfg)
	if !ref.Converged {
		t.Fatal("cap-exit run should converge under the loose accuracy target")
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("cap-exit run diverged from the reference loop:\nreference: %+v\nrun:       %+v", ref, got)
	}
}
