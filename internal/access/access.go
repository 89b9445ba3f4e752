// Package access defines the contract between the testbed and the wireless
// data access methods it evaluates.
//
// A scheme packages its broadcast-cycle construction (server side) and its
// access protocol (client side) behind the Broadcast interface. The client
// side is a per-query state machine: the runner feeds it one fully-read
// bucket at a time and the client answers with its next move — keep
// listening, doze until a byte offset, or finish. This is exactly the
// selective-tuning model of the paper: tuning time accumulates only while
// buckets are actually being read, access time runs from request arrival to
// download completion.
package access

import (
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// StepKind is a client's next move after reading a bucket.
type StepKind uint8

const (
	// StepNext keeps the receiver on: read the bucket that immediately
	// follows the one just read.
	StepNext StepKind = iota + 1
	// StepDoze switches to doze mode until Step.At, then reads the next
	// complete bucket broadcast at or after that time.
	StepDoze
	// StepDone ends the query; Step.Found reports success.
	StepDone
)

// Step is a client's reply to an OnBucket callback.
type Step struct {
	Kind  StepKind
	At    sim.Time // StepDoze: wake-up time; must not precede the current time
	Found bool     // StepDone: whether the requested record was downloaded
	// Hint optionally names the bucket index the doze targets when the
	// client computed At with channel.NextOccurrence. It lets the runner
	// skip the position search; -1 (or a stale hint) falls back to it.
	Hint units.BucketIndex
}

// Next returns the keep-listening step.
func Next() Step { return Step{Kind: StepNext, Hint: -1} }

// Doze returns a doze-until step.
func Doze(at sim.Time) Step { return Step{Kind: StepDoze, At: at, Hint: -1} }

// DozeAt returns a doze-until step targeting a known bucket index whose
// next occurrence begins exactly at t.
func DozeAt(idx units.BucketIndex, t sim.Time) Step { return Step{Kind: StepDoze, At: t, Hint: idx} }

// Done returns a terminal step.
func Done(found bool) Step { return Step{Kind: StepDone, Found: found} }

// Client is the access-protocol state machine for a single query. The
// runner reads a bucket (paying its byte cost in tuning time) and then asks
// the client what to do next. The bucket is identified by its index within
// the broadcast cycle; end is the absolute time at which its last byte was
// received.
type Client interface {
	OnBucket(bucketIndex units.BucketIndex, end sim.Time) Step
}

// Broadcast couples one constructed broadcast cycle with its access
// protocol. Implementations live in internal/schemes.
type Broadcast interface {
	// Name identifies the scheme: its name in the core registry
	// (core.SchemeNames lists them).
	Name() string
	// Channel returns the constructed broadcast cycle.
	Channel() *channel.Channel
	// NewClient returns a fresh protocol state machine for the given key.
	NewClient(key uint64) Client
	// Contains reports ground truth about key presence, for validation.
	Contains(key uint64) bool
	// Params reports scheme parameters (tree depth, fanout, overflow, ...)
	// for experiment logs.
	Params() map[string]float64
}

// AttrQuerier is implemented by broadcasts that can answer attribute-
// equality queries ("find the record whose i-th attribute equals v") in
// addition to primary-key lookups. Signature-based schemes support this
// naturally — signatures superimpose every field (paper §2.3, after [8]) —
// while key-indexed schemes can only serve such queries by scanning.
type AttrQuerier interface {
	// NewAttrClient returns a protocol state machine that searches for the
	// first record whose attribute attr equals value.
	NewAttrClient(attr int, value string) Client
}

// Result is the outcome of one query.
type Result struct {
	// Access is the paper's access time: bytes elapsed from request
	// arrival to the end of the final bucket read.
	Access units.ByteCount
	// Tuning is the paper's tuning time: bytes spent actively listening.
	Tuning units.ByteCount
	// Found reports whether the record was downloaded.
	Found bool
	// Probes counts buckets read (active-mode tune-ins).
	Probes int
}

// DefaultMaxSteps bounds a single query walk; generous enough for a serial
// scan of the largest configured cycle plus protocol overhead.
const DefaultMaxSteps = 1 << 22

// Walk executes one query against the channel, starting at the arrival
// time, and returns its access/tuning accounting. The walk implements the
// shared mechanics of every protocol in the paper: the client first waits
// for the next complete bucket (initial wait), reads it, and then follows
// the client's steps until StepDone. maxSteps <= 0 selects
// DefaultMaxSteps.
//
//airlint:hotpath
func Walk(ch *channel.Channel, c Client, arrival sim.Time, maxSteps int) (Result, error) {
	r, err := walk(ch, nil, c, nil, arrival, nil, RecoverPolicy{}, maxSteps)
	return r.Result, err
}
