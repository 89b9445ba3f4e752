package core

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/stats"
	"github.com/airindex/airindex/internal/units"
)

// Result aggregates one simulation run. Access and tuning times are in
// bytes, following the paper's measurement model (§4.1).
type Result struct {
	// Scheme is the access method that ran.
	Scheme string
	// Requests is the number of completed requests.
	Requests int64
	// Found and NotFound split requests by search outcome.
	Found, NotFound int64
	// Access and Tuning are the per-request byte samples.
	Access, Tuning stats.Sample
	// Energy is the per-request energy sample in active-listening byte
	// equivalents: tuning bytes plus DozePowerRatio times the dozed bytes.
	Energy stats.Sample
	// Probes is the per-request bucket-read count sample.
	Probes stats.Sample
	// Rounds is how many accuracy-control rounds ran.
	Rounds int
	// Converged reports whether the AccuracyController's stopping rule was
	// met (rather than the request cap).
	Converged bool
	// Restarts counts protocol restarts caused by injected bucket errors
	// (each restart is one retry of the access protocol).
	Restarts int64
	// WastedBytes is the tuning spent on reads that turned out corrupted,
	// summed over all requests.
	WastedBytes int64
	// Unrecovered counts requests abandoned after exhausting the faults
	// retry budget — unrecoverable misses, a subset of NotFound.
	Unrecovered int64
	// Switches counts receiver channel hops across all requests (K-channel
	// runs only; zero on a single channel).
	Switches int64
	// SwitchWaitBytes is the total channel-switch retune cost in bytes,
	// dozed through — included in access time, never in tuning time.
	SwitchWaitBytes int64
	// AccessP95 and AccessP99 are online P2 estimates of the access-time
	// tail, in bytes; TuningP95/TuningP99 likewise for tuning time.
	AccessP95, AccessP99 float64
	TuningP95, TuningP99 float64
	// CycleBytes is the broadcast cycle length.
	CycleBytes units.ByteCount
	// Params echoes the scheme's structural parameters.
	Params map[string]float64
	// Events is the number of simulator events processed. Arrivals are
	// the only events, so it equals Requests.
	Events int64
}

// Simulator coordinates one run: it owns the data source, the broadcast
// server's channel, the request generator and the result handler, exactly
// mirroring the object architecture of the paper's Figure 3.
type Simulator struct {
	cfg Config
	ds  *datagen.Dataset
	bc  access.Broadcast
	set *multichannel.Set // K-channel allocation; nil on the single-channel path
}

// New validates the configuration, generates the data source and builds
// the simulator over it (NewOn).
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	return NewOn(ds, cfg)
}

// NewOn builds the simulator for cfg over a data source already generated
// from cfg.Data, and lets the broadcast server construct the scheme's
// channel. The dataset is only read, so runs may share one.
func NewOn(ds *datagen.Dataset, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ds.Config() != cfg.Data {
		return nil, fmt.Errorf("core: dataset generated from %+v, config wants %+v", ds.Config(), cfg.Data)
	}
	bc, err := BuildBroadcast(ds, cfg)
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, ds: ds, bc: bc}
	if cfg.Multi.Enabled() {
		mcfg := cfg.Multi
		if mcfg.Policy == multichannel.PolicySkewed && mcfg.Skew == 0 {
			// The skewed partition defaults to the workload's own skew, so
			// the hot channel matches the hot requests.
			mcfg.Skew = cfg.ZipfS
		}
		set, err := multichannel.Build(bc.Channel(), mcfg)
		if err != nil {
			return nil, err
		}
		s.set = set
	}
	return s, nil
}

// Multichannel exposes the K-channel allocation (nil on the
// single-channel path), for tests and experiment labels.
func (s *Simulator) Multichannel() *multichannel.Set { return s.set }

// resultParams echoes the scheme's structural parameters, augmented with
// the multichannel allocation when it is active.
func (s *Simulator) resultParams() map[string]float64 {
	p := s.bc.Params()
	if s.set != nil {
		p["channels"] = float64(s.set.K())
		p["switch_cost"] = float64(s.set.SwitchCost())
		p["policy"] = float64(s.set.Config().Policy)
	}
	return p
}

// Broadcast exposes the constructed broadcast (for tests and examples).
func (s *Simulator) Broadcast() access.Broadcast { return s.bc }

// Dataset exposes the generated data source.
func (s *Simulator) Dataset() *datagen.Dataset { return s.ds }

// pickKey draws a request key from the stream's RNG: a stored key with
// probability Availability, otherwise a key provably absent from the
// broadcast.
func (s *Simulator) pickKey(st *stream) uint64 {
	var i int
	if st.zipf != nil {
		i = st.zipf()
	} else {
		i = st.rng.Intn(s.ds.Len())
	}
	if s.cfg.Availability >= 1 || st.rng.Float64() < s.cfg.Availability {
		return s.ds.KeyAt(i)
	}
	return s.ds.MissingKeyNear(i)
}

// newInjector returns the fault injector for one stream's substream, or
// nil when fault injection is disabled.
func (s *Simulator) newInjector(shard int) *faults.Injector {
	if !s.cfg.Faults.Enabled() {
		return nil
	}
	return faults.New(s.cfg.Faults, s.cfg.Seed, shard)
}

// recoverPolicy maps the faults configuration onto the access layer's
// retry policy.
func (s *Simulator) recoverPolicy() access.RecoverPolicy {
	pol := access.RecoverPolicy{MaxRetries: s.cfg.Faults.MaxRetries}
	switch s.cfg.Faults.Recovery {
	case faults.RecoverRestart:
	case faults.RecoverNextCycle:
		pol.NextCycle = true
	default:
	}
	return pol
}

// accuracyMet applies the paper's stopping rule to both criteria.
func (s *Simulator) accuracyMet(res *Result) bool {
	return res.Access.Converged(s.cfg.Confidence, s.cfg.Accuracy) &&
		res.Tuning.Converged(s.cfg.Confidence, s.cfg.Accuracy)
}

// walk runs one request's walk on the run's geometry — the K-channel set
// when the multichannel subsystem is active, the scheme's channel
// otherwise — through the stream's fault injector (nil on a perfect
// channel), which is first advanced to the new request. The walkers
// consume no arrival RNG, so the arrival and fault streams are the same
// on every geometry.
func (s *Simulator) walk(st *stream, newClient func() access.Client, arrival sim.Time) (access.MultiResult, error) {
	var inj access.Corrupter
	if st.inj != nil {
		st.inj.StartRequest()
		inj = st.inj
	}
	if s.set != nil {
		return access.WalkRecoverMulti(s.set, newClient, arrival, inj, s.recoverPolicy(), 0)
	}
	r, err := access.WalkRecover(s.bc.Channel(), newClient, arrival, inj, s.recoverPolicy(), 0)
	return access.MultiResult{FaultyResult: r}, err
}

// RunOne builds a simulator for cfg and runs it; a convenience for the
// experiment harness and examples.
func RunOne(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
