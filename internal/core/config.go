// Package core implements the paper's adaptive testbed (§3): the
// Simulator that coordinates a run, the BroadcastServer that constructs
// and cycles the channel, the RequestGenerator that injects queries with
// exponentially distributed inter-arrival times, per-request processes,
// the ResultHandler that accumulates access/tuning statistics, and the
// AccuracyController that keeps the simulation running until the requested
// confidence level and accuracy are met.
//
// The testbed is adaptive in the three ways the paper claims: new data
// access methods plug in through the scheme registry (Register), different
// application environments are a Config away (record counts, record/key
// geometry, data availability, error rates), and new evaluation criteria
// can be derived from the per-request Results the handler sees.
package core

import (
	"fmt"
	"math"

	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/bdisk"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/hybrid"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
)

// Config describes one simulation run. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Scheme is the registered access-method name.
	Scheme string
	// Data configures the synthetic dictionary database.
	Data datagen.Config

	// Availability is the probability that a generated request asks for a
	// key that is actually broadcast (paper §5.1). 1 means every search
	// succeeds.
	Availability float64
	// RequestMean is the mean of the exponential request inter-arrival
	// time, in bytes of broadcast progress (paper §3: request generation
	// "follows exponential distribution").
	RequestMean float64

	// RoundSize is the number of requests per accuracy-control round
	// (paper §4.1: 500 per simulation round).
	RoundSize int
	// Confidence is the confidence level for the stopping rule (0.99).
	Confidence float64
	// Accuracy is the target confidence accuracy H/Y (0.01).
	Accuracy float64
	// MinRequests keeps the run going even after convergence. It must
	// not exceed MaxRequests: the cap fires first, so a larger
	// MinRequests would silently make Converged unreachable.
	MinRequests int
	// MaxRequests bounds the run if convergence is slow.
	MaxRequests int

	// Seed makes the run reproducible.
	Seed int64

	// Engine is ignored: every value runs the one request engine, which
	// serves each round as a batch (see DESIGN.md §9). The field and the
	// EngineEvents/EngineCohort names stay so that callers which set them
	// keep compiling.
	Engine string

	// Shards splits the accuracy-control rounds across this many
	// independent request streams, each drawing its arrival process from
	// the SplitMix substream splitmix(Seed, shard) against the shared
	// immutable broadcast image. The stopping rule is applied to the
	// merged sample after every wave of rounds, so a run's Result is a
	// pure function of (Seed, Shards) — bit-identical regardless of
	// GOMAXPROCS or goroutine scheduling. The field must be
	// non-negative; 0 and 1 are equivalent and both run a single stream
	// seeded with Seed itself, whose request stream matches pre-sharding
	// runs.
	Shards int

	// Faults configures the deterministic unreliable-channel layer: the
	// error model applied to every bucket read and the client's recovery
	// policy. Each shard draws its fault process from the dedicated RNG
	// substream splitmix(Seed, shard, "faults"), so a faulty run's Result
	// is a pure function of (Seed, Shards, Faults) and a zero-rate model
	// reproduces the perfect-channel output byte for byte. The zero value
	// disables injection.
	Faults faults.Config

	// Multi configures the K-channel broadcast subsystem: the number of
	// physical channels, the allocation policy that maps the scheme's
	// logical cycle onto them, and the receiver's channel-switch cost
	// (dozed bytes — access time, never tuning time). The zero value keeps
	// the single-channel path the paper evaluates. A one-channel
	// replicated allocation with zero switch cost reproduces the
	// single-channel Result byte for byte, and a multichannel run's Result
	// is a pure function of (Seed, Shards, Multi); see DESIGN.md §8.
	Multi multichannel.Config

	// ZipfS skews request popularity over the records' popularity ranks
	// (record index 0 hottest) with a Zipf exponent s > 1; 0 keeps the
	// paper's uniform workload.
	ZipfS float64

	// DozePowerRatio is the doze-mode power draw relative to active
	// listening (real receivers doze at a few percent of active power, not
	// zero). It feeds the Energy criterion — an example of adding a new
	// evaluation criterion to the testbed (paper §3). Zero reproduces the
	// paper's pure tuning-time accounting.
	DozePowerRatio float64

	// Per-scheme options.
	Onem      onem.Options
	Dist      dist.Options
	Hashing   hashing.Options
	Signature signature.Options
	Hybrid    hybrid.Options
	Bdisk     bdisk.Options
}

// DefaultConfig returns the paper's Table 1 settings for a given scheme
// and record count: 500-byte records, 25-byte keys, exponential arrivals,
// confidence level 0.99, confidence accuracy 0.01, 500-request rounds.
func DefaultConfig(scheme string, records int) Config {
	return Config{
		Scheme:       scheme,
		Data:         datagen.Default(records),
		Availability: 1,
		RequestMean:  4096,
		RoundSize:    500,
		Confidence:   0.99,
		Accuracy:     0.01,
		MinRequests:  2000,
		MaxRequests:  200000,
		Seed:         42,
		Shards:       1,
		Onem:         onem.DefaultOptions(),
		Dist:         dist.DefaultOptions(),
		Hashing:      hashing.DefaultOptions(),
		Signature:    signature.DefaultOptions(),
		Hybrid:       hybrid.DefaultOptions(),
		Bdisk:        bdisk.DefaultOptions(),
	}
}

// Validate reports whether the configuration is runnable, the active
// scheme's options included; range checks that need the dataset, such
// as (1,m)'s m against the record count, stay in the scheme's Build.
func (c Config) Validate() error {
	s, ok := lookupScheme(c.Scheme, false)
	if !ok {
		return fmt.Errorf("core: unknown scheme %q (have %v)", c.Scheme, SchemeNames())
	}
	if err := c.Data.Validate(); err != nil {
		return err
	}
	// Every float range check is written so that NaN fails it, and the
	// open-ended ones reject +Inf.
	switch {
	case !(0 <= c.Availability && c.Availability <= 1):
		return fmt.Errorf("core: availability %v outside [0,1]", c.Availability)
	case !(0 < c.RequestMean && c.RequestMean <= math.MaxFloat64):
		return fmt.Errorf("core: request mean %v must be positive and finite", c.RequestMean)
	case c.RoundSize < 2:
		return fmt.Errorf("core: round size %d must be at least 2", c.RoundSize)
	case !(0 < c.Confidence && c.Confidence < 1):
		return fmt.Errorf("core: confidence %v outside (0,1)", c.Confidence)
	case !(0 < c.Accuracy && c.Accuracy < 1):
		return fmt.Errorf("core: accuracy %v outside (0,1)", c.Accuracy)
	case c.MaxRequests < c.RoundSize:
		return fmt.Errorf("core: max requests %d below one round of %d", c.MaxRequests, c.RoundSize)
	case c.MinRequests > c.MaxRequests:
		// The MaxRequests cap fires before MinRequests can be reached,
		// so this configuration silently makes Converged unreachable
		// instead of doing what it says.
		return fmt.Errorf("core: min requests %d exceeds max requests %d; the request cap would always fire before the stopping rule could hold", c.MinRequests, c.MaxRequests)
	case c.ZipfS != 0 && !(1 < c.ZipfS && c.ZipfS <= math.MaxFloat64):
		return fmt.Errorf("core: zipf exponent %v must be finite and exceed 1 (or be 0 for uniform)", c.ZipfS)
	case c.ZipfS > 1 && c.Data.NumRecords < 2:
		return fmt.Errorf("core: zipf workload (s=%v) needs at least 2 records, have %d: rank generation is undefined for a single record", c.ZipfS, c.Data.NumRecords)
	case c.Shards < 0:
		return fmt.Errorf("core: shards %d must be non-negative (0 and 1 both run a single request stream)", c.Shards)
	case c.Shards > c.MaxRequests:
		return fmt.Errorf("core: shards %d exceeds max requests %d; every shard needs at least one request of budget", c.Shards, c.MaxRequests)
	case !(0 <= c.DozePowerRatio && c.DozePowerRatio <= 1):
		return fmt.Errorf("core: doze power ratio %v outside [0,1]", c.DozePowerRatio)
	}
	if s.Check != nil {
		if err := s.Check(c); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if faultsCanCorrupt(c.Faults) && c.Faults.MaxRetries == 0 && c.Availability < 1 && s.Serial {
		// The access.RecoverPolicy caveat, enforced: a serial scheme can
		// only conclude a key is absent after a full clean pass of the
		// cycle, so with errors injected and keys that may be missing, an
		// unbounded retry budget can search forever and the walk dies on
		// its step budget instead of degrading gracefully.
		return fmt.Errorf("core: scheme %q is serial (concludes absence only after a full clean pass); with faults enabled and availability %v < 1, unbounded retries (Faults.MaxRetries=0) may never terminate on a missing key — set Faults.MaxRetries", c.Scheme, c.Availability)
	}
	return c.Multi.Validate()
}

// Engine names once accepted by Config.Engine; both now select the one
// request engine, like any other value.
const (
	EngineEvents = "events"
	EngineCohort = "cohort"
)

// faultsCanCorrupt reports whether the fault configuration can actually
// corrupt a read: an enabled model at rate zero takes the injected code
// path but never corrupts, so unbounded retries stay safe (the zero-rate
// differential tests rely on exactly that).
func faultsCanCorrupt(f faults.Config) bool {
	return f.Enabled() && f.Rate > 0
}
