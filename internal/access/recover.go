package access

import (
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// Corrupter is the unreliable-channel decision process: it reports whether
// the probe-th bucket read of the current request (of the given encoded
// size) reached the receiver unusable. internal/faults.Injector implements
// it from the dedicated splitmix(seed, shard, "faults") substream; the
// interface lives here so the access layer stays independent of the fault
// models.
type Corrupter interface {
	Corrupt(probe int, size units.ByteCount) bool
}

// RecoverPolicy is the client-side retry policy applied when a read fails
// its integrity check (wire.ErrChecksum on real bytes; the Corrupter's
// verdict in simulation). The same policy serves every scheme: a protocol
// state machine cannot trust anything derived from a corrupted bucket, so
// recovery discards the per-query state and re-tunes — either immediately
// at the next complete bucket (the protocol re-acquires its next index
// segment from the offsets every scheme broadcasts) or, doze-aware, at the
// next cycle start.
type RecoverPolicy struct {
	// NextCycle re-tunes at the next broadcast-cycle start instead of the
	// next bucket; the wait is spent dozing, so it trades access time for
	// tuning time.
	NextCycle bool
	// MaxRetries bounds corrupted reads tolerated per request; past the
	// bound the request is abandoned as an unrecoverable miss. 0 means
	// unbounded — note that a serial scheme (flat, signature) can only
	// conclude a key is absent after a full clean pass of the cycle, so at
	// high error rates an unbounded search for a missing key may never
	// terminate (the walk then fails on its step budget); bound the
	// retries when data availability is below 100%.
	MaxRetries int
}

// FaultyResult extends Result with error-recovery accounting.
type FaultyResult struct {
	Result
	// Restarts counts protocol restarts forced by corrupted buckets (the
	// request's retry count).
	Restarts int
	// Wasted is the tuning spent on reads that turned out corrupted: bytes
	// the receiver listened to and then had to discard.
	Wasted units.ByteCount
	// Unrecovered reports that the request was abandoned after exhausting
	// its retry budget — an unrecoverable miss, distinct from a clean
	// not-found outcome.
	Unrecovered bool
}

// MultiResult extends FaultyResult with channel-hopping accounting.
type MultiResult struct {
	FaultyResult
	// Switches counts channel hops the receiver performed after its
	// initial (free) tune.
	Switches int
	// SwitchWait is the total retune cost in bytes across those hops. The
	// receiver dozes through it, so it is included in Access but never in
	// Tuning.
	SwitchWait units.ByteCount
}

// WalkRecover executes one query over an unreliable channel: Walk's
// mechanics plus the corruption process and the retry policy. Every read
// — clean or corrupted — pays its byte cost in tuning time (the receiver
// listened either way); a corrupted read additionally counts into Restarts
// and Wasted, and the protocol restarts from a fresh client at the
// position the policy selects. newClient must return a fresh protocol
// state machine per restart. inj may be nil for a perfect channel, in
// which case WalkRecover behaves exactly like Walk.
//
//airlint:hotpath
func WalkRecover(ch *channel.Channel, newClient func() Client, arrival sim.Time, inj Corrupter, pol RecoverPolicy, maxSteps int) (FaultyResult, error) {
	r, err := walk(ch, nil, newClient(), newClient, arrival, inj, pol, maxSteps)
	return r.FaultyResult, err
}

// WalkRecoverMulti is WalkRecover against a K-channel allocation. Wherever
// the single-channel walk waits for a bucket's next occurrence on the one
// channel, the multichannel walk waits for its earliest feasible
// occurrence across all channels that carry it — staying on the current
// channel is free, hopping costs the set's switch cost in dozed bytes.
// Concretely:
//
//   - the initial tune locks onto the earliest complete bucket on any
//     channel (no switch cost: the receiver was not tuned yet);
//   - StepNext seeks the next logical bucket, which on the current
//     channel is the contiguous next bucket whenever the channel carries
//     it (so a serial scan stays put), and may be a hop otherwise;
//   - a hinted doze (DozeAt) seeks the hinted bucket's earliest feasible
//     occurrence — the hint names a logical bucket, so the walker
//     recomputes occurrence times per channel instead of trusting the
//     client's single-channel wake time;
//   - an unhinted doze stays on the current channel and wakes at the next
//     complete bucket at or after the requested time;
//   - recovery after a corrupted read keeps the receiver on its current
//     channel — a corrupted read says nothing about where to go, so the
//     client re-tunes in place (RecoverPolicy.NextCycle waits for the
//     current channel's next cycle start).
//
// inj may be nil for a perfect channel. With one channel under
// PolicyReplicated and zero switch cost every query reproduces
// WalkRecover (and, with a nil inj, Walk) byte for byte — the K=1
// identity guarantee; see DESIGN.md §8.
//
//airlint:hotpath
func WalkRecoverMulti(set *multichannel.Set, newClient func() Client, arrival sim.Time, inj Corrupter, pol RecoverPolicy, maxSteps int) (MultiResult, error) {
	return walk(nil, set, newClient(), newClient, arrival, inj, pol, maxSteps)
}
