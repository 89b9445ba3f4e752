// Package multichannel models K-channel broadcast dissemination: one
// logical broadcast cycle allocated across several physical channels that
// transmit in parallel, plus the receiver-side cost of hopping between
// them.
//
// The paper evaluates every access method on a single channel, but the
// field moved to multi-channel dissemination (see PAPERS.md: Khatibi's
// multichannel XML streams, Lai/Lin/Liu's conflict-avoiding multi-channel
// scheduling). This package opens that axis for every scheme without
// touching the schemes themselves: the logical cycle a scheme builds stays
// exactly as constructed, and an allocation policy decides which physical
// channel broadcasts which bucket, at which phase. The access layer's
// channel-hopping walk (access.WalkRecoverMulti) consumes the geometry
// through Set.
//
// Three allocation policies are provided:
//
//   - PolicyReplicated: every channel carries the full cycle, phase-
//     staggered by cycle/K, so the expected wait for any specific bucket
//     drops by ~1/K while tuning time is unchanged;
//   - PolicyIndexData: dedicated index channel(s) carry only the index
//     buckets (phase-staggered among themselves) while the data buckets
//     are partitioned contiguously across the remaining channels — the
//     K-channel generalization of (1,m)'s index/data separation;
//   - PolicySkewed: Broadcast-Disks-style frequency partition — data
//     buckets are split across channels by Zipf access probability, so a
//     hot channel has a short cycle that repeats its buckets often, while
//     index buckets (if any) are replicated on every channel.
//
// Switching channels is not free: Config.SwitchCost is the bytes of
// broadcast progress that elapse while the receiver retunes its RF front
// end. The wait is spent dozing, so a hop adds to access time but never to
// tuning time — the same accounting the paper uses for doze-mode waits.
//
// Determinism: a Set is a pure function of (base channel, Config), every
// geometry query is deterministic, and the walkers draw no randomness, so
// a multichannel run's Result remains a pure function of
// (seed, shards, multichannel config) under the DESIGN.md §7 contract.
// With Channels=1 under PolicyReplicated and zero switch cost the geometry
// is identical to the base channel and every walk reproduces the
// single-channel walk byte for byte (the K=1 identity guarantee).
package multichannel

import (
	"fmt"

	"github.com/airindex/airindex/internal/units"
)

// PolicyKind selects how the logical cycle is allocated across the K
// physical channels. It is a closed enum: the airlint exhaustive analyzer
// requires every switch over it to cover all constants or carry a default.
type PolicyKind uint8

const (
	// PolicyReplicated (the zero value) carries the full logical cycle on
	// every channel, phase-staggered by cycle/K.
	PolicyReplicated PolicyKind = iota
	// PolicyIndexData dedicates IndexChannels channels to the index
	// buckets and partitions the data buckets contiguously (balanced by
	// bytes) across the remaining channels.
	PolicyIndexData
	// PolicySkewed partitions the data buckets across channels by Zipf
	// access probability over popularity rank: hot buckets land on short
	// cycles that repeat often. Index buckets are replicated everywhere.
	PolicySkewed
)

// String returns the policy's CLI name.
func (k PolicyKind) String() string {
	switch k {
	case PolicyReplicated:
		return "replicated"
	case PolicyIndexData:
		return "indexdata"
	case PolicySkewed:
		return "skewed"
	default:
		return fmt.Sprintf("policy(%d)", uint8(k))
	}
}

// ParsePolicy maps a CLI name to its PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "", "replicated":
		return PolicyReplicated, nil
	case "indexdata", "index-data":
		return PolicyIndexData, nil
	case "skewed":
		return PolicySkewed, nil
	default:
		return PolicyReplicated, fmt.Errorf("multichannel: unknown allocation policy %q (have replicated, indexdata, skewed)", s)
	}
}

// MaxChannels bounds the channel count; real broadcast deployments use a
// handful of carriers, and the experiment family sweeps K=1..8.
const MaxChannels = 64

// Config parameterizes the K-channel subsystem. The zero value disables
// it entirely: the simulator keeps the single-channel code path, which is
// what every figure of the paper uses.
type Config struct {
	// Channels is the number of physical channels K. 0 disables the
	// subsystem; 1 runs the multichannel walker over a single channel,
	// which reproduces the single-channel results byte for byte (the K=1
	// identity guarantee, pinned by a differential test and CI job).
	Channels int

	// SwitchCost is the bytes of broadcast progress that elapse while the
	// receiver retunes from one channel to another. The wait is spent
	// dozing: it adds to access time but never to tuning time. The initial
	// tune at request arrival is free — the receiver was not locked to any
	// channel yet.
	SwitchCost units.ByteCount

	// Policy selects the allocation of buckets to channels.
	Policy PolicyKind

	// IndexChannels is how many channels PolicyIndexData dedicates to the
	// index buckets; 0 defaults to 1. Must leave at least one data
	// channel. Ignored by the other policies.
	IndexChannels int

	// Skew is PolicySkewed's Zipf exponent over data-bucket popularity
	// rank (rank 0 hottest, matching the workload's convention); 0 splits
	// the data mass evenly. Ignored by the other policies.
	Skew float64
}

// Enabled reports whether the K-channel subsystem is active.
func (c Config) Enabled() bool { return c.Channels > 0 }

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Channels < 0 {
		return fmt.Errorf("multichannel: channels %d must be non-negative (0 disables)", c.Channels)
	}
	if c.Channels > MaxChannels {
		return fmt.Errorf("multichannel: channels %d exceeds the maximum %d", c.Channels, MaxChannels)
	}
	if c.SwitchCost < 0 {
		return fmt.Errorf("multichannel: switch cost %d bytes must be non-negative", c.SwitchCost)
	}
	if c.IndexChannels < 0 {
		return fmt.Errorf("multichannel: index channels %d must be non-negative (0 defaults to 1)", c.IndexChannels)
	}
	if c.Skew < 0 {
		return fmt.Errorf("multichannel: skew exponent %v must be non-negative", c.Skew)
	}
	switch c.Policy {
	case PolicyReplicated, PolicySkewed:
	case PolicyIndexData:
		if c.Enabled() {
			ic := c.indexChannels()
			if ic >= c.Channels {
				return fmt.Errorf("multichannel: indexdata with %d index channels needs at least %d channels total (have %d); leave one data channel", ic, ic+1, c.Channels)
			}
		}
	default:
		return fmt.Errorf("multichannel: unknown policy kind %d", c.Policy)
	}
	if !c.Enabled() && c.SwitchCost > 0 {
		return fmt.Errorf("multichannel: switch cost %d set but channels is 0; set Channels to enable the subsystem", c.SwitchCost)
	}
	return nil
}

// DataChannels returns the channels PolicyIndexData leaves to the data.
func (c Config) DataChannels() int { return c.Channels - c.indexChannels() }

// indexChannels returns the effective index-channel count for
// PolicyIndexData, applying the default of 1.
func (c Config) indexChannels() int {
	if c.IndexChannels <= 0 {
		return 1
	}
	return c.IndexChannels
}
