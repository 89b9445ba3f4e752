package access

import (
	"fmt"

	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// walk is the one bucket loop behind Walk, WalkRecover and
// WalkRecoverMulti. Each step reads one bucket — paying its bytes in
// tuning time — then either restarts the protocol, when inj reports the
// read corrupted, or follows the client's next move.
//
// The geometry is set when it is non-nil and ch otherwise. The loop
// branches on set == nil instead of abstracting the geometry behind an
// interface or a type parameter: keeping the single-channel arithmetic
// inline is what keeps the serial walks (flat, signature) as fast as a
// dedicated single-channel loop. On a set, idx is a channel-local
// position on channel cur; the client always sees logical bucket indices.
//
// c is the first protocol state machine; newClient supplies a fresh one
// after each corrupted read and is never called when inj is nil.
//
//airlint:hotpath
func walk(ch *channel.Channel, set *multichannel.Set, c Client, newClient func() Client, arrival sim.Time, inj Corrupter, pol RecoverPolicy, maxSteps int) (MultiResult, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	var (
		n     units.BucketCount // logical buckets per cycle
		cur   int               // the receiver's channel on a set
		idx   units.BucketIndex // the bucket to read next
		start sim.Time          // its start time
		res   MultiResult
		err   error
	)
	if set == nil {
		n = ch.NumBuckets()
		idx, start = ch.NextBucketAt(arrival)
	} else {
		n = set.NumLogical()
		cur, idx, start = set.FirstBucket(arrival)
	}
loop:
	for step := 0; ; step++ {
		if step == maxSteps {
			if inj != nil && pol.MaxRetries <= 0 {
				//airlint:allow escapecheck fmt.Errorf boxes its operands on this terminal error path
				err = fmt.Errorf("access: recovering query exceeded %d steps without terminating (unbounded retries; bound RecoverPolicy.MaxRetries — at this error rate the scheme cannot complete a clean pass)", maxSteps) //airlint:allow hotalloc terminal budget-exhaustion path, once per failed query
			} else {
				//airlint:allow escapecheck fmt.Errorf boxes its operands on this terminal error path
				err = fmt.Errorf("access: query exceeded %d steps without terminating", maxSteps) //airlint:allow hotalloc terminal budget-exhaustion path, once per failed query
			}
			break loop
		}
		logical := idx
		var size units.ByteCount
		if set == nil {
			size = ch.SizeOf(idx)
		} else {
			logical = set.Logical(cur, idx)
			size = set.SizeOfLocal(cur, idx)
		}
		end := start + size.Span()
		res.Tuning += size
		res.Probes++
		if inj != nil && inj.Corrupt(res.Probes-1, size) {
			res.Restarts++
			res.Wasted += size
			if pol.MaxRetries > 0 && res.Restarts > pol.MaxRetries {
				// Retry budget exhausted: abandon the request. The time
				// already spent still counts — the user waited for it.
				res.Access = units.Elapsed(arrival, end)
				res.Unrecovered = true
				break loop
			}
			// Re-tune on the current channel, after dozing (no tuning
			// cost) to its next cycle start under NextCycle.
			c = newClient()
			at := end
			if set == nil {
				if pol.NextCycle {
					at = ch.NextCycleStart(end)
				}
				idx, start = ch.NextBucketAt(at)
			} else {
				if pol.NextCycle {
					at = set.NextCycleStartOn(cur, end)
				}
				idx, start = set.NextOnChannel(cur, at)
			}
			continue
		}
		s := c.OnBucket(logical, end)
		switch s.Kind {
		case StepNext:
			if set == nil {
				// Buckets are contiguous: the next one starts where this ended.
				idx, start = idx.Next(n), end
				continue
			}
			s.Hint = logical.Next(n)
			// When cur's next local bucket carries it, that bucket starts
			// at end, no occurrence anywhere starts earlier, and a tie
			// stays on cur: it is NextFeasible's answer without the query.
			if next, lg := set.NextLocal(cur, idx); lg == s.Hint {
				idx, start = next, end
				continue
			}
		case StepDoze:
			if s.At < end {
				//airlint:allow escapecheck fmt.Errorf boxes its operands on this terminal error path
				err = fmt.Errorf("access: client dozed into the past: %d < %d", s.At, end) //airlint:allow hotalloc terminal protocol-violation path, never taken by a correct client
				break loop
			}
			if set == nil {
				if s.Hint.InCycle(n) && units.CycleOffset(s.At, ch.CycleLen()) == ch.StartInCycle(s.Hint) {
					idx, start = s.Hint, s.At
				} else {
					idx, start = ch.NextBucketAt(s.At)
				}
				continue
			}
			if !s.Hint.InCycle(n) {
				// An unhinted doze stays on the current channel.
				idx, start = set.NextOnChannel(cur, s.At)
				continue
			}
		case StepDone:
			res.Access = units.Elapsed(arrival, end)
			res.Found = s.Found
			break loop
		default:
			//airlint:allow escapecheck fmt.Errorf boxes its operands on this terminal error path
			err = fmt.Errorf("access: invalid step kind %d", s.Kind) //airlint:allow hotalloc terminal protocol-violation path, never taken by a correct client
			break loop
		}
		// On a set, StepNext and a hinted doze both seek the logical
		// bucket s.Hint at its earliest feasible occurrence on any channel.
		to, local, at := set.NextFeasible(s.Hint, end, cur)
		if to != cur {
			res.Switches++
			res.SwitchWait += set.SwitchCost()
			cur = to
		}
		idx, start = local, at
	}
	return res, err
}
