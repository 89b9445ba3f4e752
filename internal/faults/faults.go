// Package faults is the deterministic unreliable-channel layer: it decides,
// per bucket read, whether the receiver got a usable copy of the bucket.
//
// The paper's testbed assumes a perfect air interface, but its own framing —
// wireless links with limited bandwidth and doze-mode receivers — makes link
// errors the first scenario a deployed system must survive. This package
// opens that dimension for every scheme while preserving the §7 determinism
// contract: all fault randomness is a pure function of
// (seed, shard, request, probe) drawn from the dedicated RNG substream
// splitmix(seed, shard, "faults"), so enabling faults never perturbs the
// arrival process, a run's Result is a pure function of
// (seed, shards, faultcfg), and raising an error rate only adds corrupted
// reads at coordinates that were already drawn (the per-read uniforms are
// shared across rates, which is what makes degradation sweeps monotone).
//
// Three error models are provided:
//
//   - ModelIID: each bucket read fails independently with the probability a
//     bit-error-rate BER implies for its size, 1-(1-BER)^(8·bytes) — larger
//     buckets are likelier casualties, as on a real link;
//   - ModelGilbertElliott: the classic two-state burst model (Gilbert 1960,
//     Elliott 1963): a hidden good/bad channel state evolves per read and
//     each state corrupts with its own probability, clustering losses;
//   - ModelDrop: whole-bucket drop with a flat per-read probability — the
//     "error rate" axis of the degradation experiments.
//
// Detection is the wire layer's job (CRC32C sealed frames, wire.Seal /
// wire.Verify); recovery is the access layer's (access.WalkRecover). This
// package only supplies the deterministic loss process.
package faults

import (
	"fmt"
	"math"

	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// ModelKind selects the error process applied to bucket reads. It is a
// closed enum: the airlint exhaustive analyzer requires every switch over
// it to cover all constants or carry a default.
type ModelKind uint8

const (
	// ModelNone disables fault injection; the zero Config is a no-op.
	ModelNone ModelKind = iota
	// ModelIID corrupts each read independently with the BER-derived
	// per-bucket probability 1-(1-BER)^(8·size).
	ModelIID
	// ModelGilbertElliott corrupts reads from a two-state (good/bad)
	// Markov burst process.
	ModelGilbertElliott
	// ModelDrop drops each bucket read independently with DropRate.
	ModelDrop
)

// String returns the model's CLI name.
func (k ModelKind) String() string {
	switch k {
	case ModelNone:
		return "none"
	case ModelIID:
		return "iid"
	case ModelGilbertElliott:
		return "ge"
	case ModelDrop:
		return "drop"
	default:
		return fmt.Sprintf("model(%d)", uint8(k))
	}
}

// ParseModel maps a CLI name to its ModelKind.
func ParseModel(s string) (ModelKind, error) {
	switch s {
	case "", "none":
		return ModelNone, nil
	case "iid":
		return ModelIID, nil
	case "ge", "gilbert-elliott":
		return ModelGilbertElliott, nil
	case "drop":
		return ModelDrop, nil
	default:
		return ModelNone, fmt.Errorf("faults: unknown error model %q (have none, iid, ge, drop)", s)
	}
}

// RecoveryKind selects the client's re-tune policy after a corrupted read.
// Like ModelKind it is a closed enum under the exhaustive analyzer.
type RecoveryKind uint8

const (
	// RecoverRestart (the zero value) restarts the protocol at the next
	// complete bucket: the client keeps listening and re-acquires the next
	// index segment the protocol itself would find (every scheme's buckets
	// carry offsets to their next index).
	RecoverRestart RecoveryKind = iota
	// RecoverNextCycle dozes until the next broadcast-cycle start and
	// restarts there — cheapest in tuning (the wait is spent dozing),
	// costliest in access time.
	RecoverNextCycle
)

// String returns the policy's CLI name.
func (k RecoveryKind) String() string {
	switch k {
	case RecoverRestart:
		return "restart"
	case RecoverNextCycle:
		return "cycle"
	default:
		return fmt.Sprintf("recovery(%d)", uint8(k))
	}
}

// ParseRecovery maps a CLI name to its RecoveryKind.
func ParseRecovery(s string) (RecoveryKind, error) {
	switch s {
	case "", "restart":
		return RecoverRestart, nil
	case "cycle":
		return RecoverNextCycle, nil
	default:
		return RecoverRestart, fmt.Errorf("faults: unknown recovery policy %q (have restart, cycle)", s)
	}
}

// Config parameterizes the unreliable channel and the client recovery
// policy. The zero value disables fault injection entirely.
type Config struct {
	// Model selects the error process; ModelNone disables injection.
	Model ModelKind

	// BER is ModelIID's bit error rate in [0,1).
	BER float64

	// DropRate is ModelDrop's per-read drop probability in [0,1).
	DropRate float64

	// GoodToBad and BadToGood are ModelGilbertElliott's per-read state
	// transition probabilities; ErrGood and ErrBad are the per-read
	// corruption probabilities inside each state. The defaults chosen by
	// FromRate (GoodToBad 0.01, BadToGood 0.25) give mean bursts of four
	// reads separated by ~100-read quiet spells.
	GoodToBad, BadToGood float64
	ErrGood, ErrBad      float64

	// Recovery selects the client's re-tune policy after a corrupted read.
	Recovery RecoveryKind

	// MaxRetries bounds corrupted reads tolerated per request; past the
	// bound the request is abandoned as an unrecoverable miss. 0 means
	// unbounded (every request eventually completes).
	MaxRetries int
}

// Enabled reports whether fault injection is active.
func (c Config) Enabled() bool { return c.Model != ModelNone }

// Rate returns the model's headline error rate, for experiment labels.
func (c Config) Rate() float64 {
	switch c.Model {
	case ModelNone:
		return 0
	case ModelIID:
		return c.BER
	case ModelGilbertElliott:
		return c.ErrBad
	case ModelDrop:
		return c.DropRate
	default:
		return 0
	}
}

// FromRate builds a Config for the named model with one headline rate:
// the BER for ModelIID, the drop probability for ModelDrop, and the
// bad-state corruption probability (with default burst geometry) for
// ModelGilbertElliott.
func FromRate(model ModelKind, rate float64) Config {
	switch model {
	case ModelNone:
		return Config{}
	case ModelIID:
		return Config{Model: ModelIID, BER: rate}
	case ModelGilbertElliott:
		return Config{Model: ModelGilbertElliott, GoodToBad: 0.01, BadToGood: 0.25, ErrBad: rate}
	case ModelDrop:
		return Config{Model: ModelDrop, DropRate: rate}
	default:
		return Config{}
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	// Every range check is written so that NaN fails it.
	inUnit := func(name string, v float64) error {
		if !(0 <= v && v <= 1) {
			return fmt.Errorf("faults: %s %v outside [0,1]", name, v)
		}
		return nil
	}
	switch c.Model {
	case ModelNone, ModelIID, ModelGilbertElliott, ModelDrop:
	default:
		return fmt.Errorf("faults: unknown model kind %d", c.Model)
	}
	switch c.Recovery {
	case RecoverRestart, RecoverNextCycle:
	default:
		return fmt.Errorf("faults: unknown recovery kind %d", c.Recovery)
	}
	if !(0 <= c.BER && c.BER < 1) {
		return fmt.Errorf("faults: bit error rate %v outside [0,1)", c.BER)
	}
	if !(0 <= c.DropRate && c.DropRate < 1) {
		return fmt.Errorf("faults: drop rate %v outside [0,1)", c.DropRate)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"good->bad transition", c.GoodToBad},
		{"bad->good transition", c.BadToGood},
		{"good-state error rate", c.ErrGood},
		{"bad-state error rate", c.ErrBad},
	} {
		if err := inUnit(p.name, p.v); err != nil {
			return err
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("faults: max retries %d must be non-negative", c.MaxRetries)
	}
	return nil
}

// Injector is one shard's deterministic fault process. Every decision is a
// pure function of (base stream seed, request serial, probe index), so two
// injectors built from the same (cfg, seed, shard) replay the same fault
// pattern regardless of scheduling, and the byte-driven airborne clients
// see exactly the corruptions the scheme clients saw.
type Injector struct {
	cfg  Config
	base uint64 // splitmix(seed, shard, "faults")
	req  uint64 // request serial within the shard
	bad  bool   // Gilbert–Elliott channel state for the current request
}

// New returns the injector for one shard's substream. seed and shard are
// the simulation seed and shard index; a one-shard run is shard 0.
func New(cfg Config, seed int64, shard int) *Injector {
	return &Injector{cfg: cfg, base: uint64(sim.StreamSeed(seed, shard, "faults"))}
}

// Distinct odd gammas keep the request, probe and draw counters from
// aliasing in the SplitMix64 finalizer's input.
const (
	gammaReq   = 0x9E3779B97F4A7C15
	gammaProbe = 0xC2B2AE3D27D4EB4F
	gammaDraw  = 0x165667B19E3779F9
)

// mix64 is the SplitMix64 output finalizer.
//
//airlint:hotpath
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// uniform returns the [0,1) variate at counter coordinate (req, probe,
// draw). Draw 0 is the Gilbert–Elliott state transition, draw 1 the
// corruption decision, draw 2 the per-request initial state; sharing draw
// 1 across models and rates couples sweeps (a read corrupted at rate p is
// still corrupted at every rate above p).
//
//airlint:hotpath
func (in *Injector) uniform(probe, draw uint64) float64 {
	x := in.base + in.req*gammaReq + probe*gammaProbe + draw*gammaDraw
	return float64(mix64(x)>>11) / (1 << 53)
}

// StartRequest advances the injector to the next request's fault stream.
// The Gilbert–Elliott state is drawn fresh from the chain's stationary
// distribution: requests resolve independently in the simulator, so each
// carries its own burst process (DESIGN.md §7).
//
//airlint:hotpath
func (in *Injector) StartRequest() {
	in.req++
	if in.cfg.Model != ModelGilbertElliott {
		return
	}
	denom := in.cfg.GoodToBad + in.cfg.BadToGood
	if denom <= 0 {
		in.bad = false
		return
	}
	in.bad = in.uniform(^uint64(0), 2) < in.cfg.GoodToBad/denom
}

// MangleCopy returns a copy of an encoded (typically wire.Seal-ed) frame
// with one deterministically chosen bit flipped — the byte-level image of
// the corruption Corrupt reported at the same probe coordinate. Any single
// flipped bit is guaranteed caught by the CRC32C trailer (wire.Verify), so
// byte-driven clients detect exactly the reads the injector corrupted.
func (in *Injector) MangleCopy(probe int, frame []byte) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	if len(out) == 0 {
		return out
	}
	bit := mix64(in.base+in.req*gammaReq+uint64(probe)*gammaProbe+3*gammaDraw) % uint64(8*len(out))
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// Corrupt decides whether the probe-th bucket read of the current request
// (of the given encoded size) reached the receiver unusable. probe counts
// from 0 within the request.
//
//airlint:hotpath
func (in *Injector) Corrupt(probe int, size units.ByteCount) bool {
	p := uint64(probe)
	switch in.cfg.Model {
	case ModelNone:
		return false
	case ModelIID:
		if in.cfg.BER <= 0 {
			return false
		}
		// Per-bucket failure probability implied by the bit error rate:
		// 1-(1-BER)^bits, computed stably in log space.
		bits := 8 * float64(size)
		pb := -math.Expm1(bits * math.Log1p(-in.cfg.BER))
		return in.uniform(p, 1) < pb
	case ModelGilbertElliott:
		// Evolve the channel state, then corrupt by the new state's rate.
		if in.bad {
			if in.uniform(p, 0) < in.cfg.BadToGood {
				in.bad = false
			}
		} else {
			if in.uniform(p, 0) < in.cfg.GoodToBad {
				in.bad = true
			}
		}
		rate := in.cfg.ErrGood
		if in.bad {
			rate = in.cfg.ErrBad
		}
		if rate <= 0 {
			return false
		}
		return in.uniform(p, 1) < rate
	case ModelDrop:
		if in.cfg.DropRate <= 0 {
			return false
		}
		return in.uniform(p, 1) < in.cfg.DropRate
	default:
		return false
	}
}
