// Package channel models the cyclic wireless broadcast channel.
//
// A channel is a fixed sequence of buckets broadcast over and over (the
// paper's "broadcast cycle"). Positions are byte offsets and the server
// transmits one byte per virtual time unit, so the channel provides the
// arithmetic every access protocol needs: which bucket is in flight at a
// given time, when the next complete bucket begins (the paper's "initial
// wait"), and when a specific bucket will next be broadcast (the target of
// a doze-mode offset pointer).
//
// All geometry is expressed in the defined types of internal/units:
// sizes are units.ByteCount, in-cycle positions are units.ByteOffset and
// bucket positions are units.BucketIndex — so confusing a byte offset
// with a byte amount, or an index with a count, is a compile error.
package channel

import (
	"fmt"

	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Bucket is one broadcast unit. Implementations live in the scheme
// packages; the channel only needs sizes and kinds. Encode must produce
// exactly Size bytes — scheme tests assert this so simulated timings match
// real on-air bytes.
type Bucket interface {
	// Size is the encoded byte length of the bucket.
	Size() units.ByteCount
	// Kind reports the bucket's role.
	Kind() wire.Kind
	// Encode serializes the bucket to its wire form.
	Encode() []byte
}

// Channel is an immutable broadcast cycle.
type Channel struct {
	buckets []Bucket
	starts  []units.ByteOffset // starts[i] = byte offset of bucket i within the cycle
	// sizes[i] is bucket i's Size, read once at Build, so a probe reads
	// a slice instead of making an interface call.
	sizes []units.ByteCount
	cycle units.ByteCount
	// uniform is the common bucket size when every bucket has the same
	// size (flat, hashing, bdisk), else 0. The next boundary after an
	// offset is then a ceiling division rather than a search; on the
	// cohort-lossy-k4 benchmark that cut run_s by about a third on a
	// 2-vCPU VM (BENCH.md).
	uniform units.ByteCount
}

// Build assembles a channel from a bucket sequence.
func Build(buckets []Bucket) (*Channel, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("channel: empty bucket sequence")
	}
	starts := make([]units.ByteOffset, len(buckets))
	sizes := make([]units.ByteCount, len(buckets))
	var off units.ByteOffset
	for i, b := range buckets {
		if b == nil {
			return nil, fmt.Errorf("channel: nil bucket at %d", i)
		}
		size := b.Size()
		if size <= 0 {
			return nil, fmt.Errorf("channel: bucket %d has nonpositive size %d", i, size)
		}
		starts[i] = off
		sizes[i] = size
		off = off.Advance(size)
	}
	c := &Channel{buckets: buckets, starts: starts, sizes: sizes, cycle: off.Extent(), uniform: sizes[0]}
	for _, size := range sizes {
		if size != c.uniform {
			c.uniform = 0
			break
		}
	}
	return c, nil
}

// MustBuild is Build for statically correct sequences; it panics on error.
func MustBuild(buckets []Bucket) *Channel {
	c, err := Build(buckets)
	if err != nil {
		panic(err)
	}
	return c
}

// NumBuckets returns the number of buckets per cycle.
func (c *Channel) NumBuckets() units.BucketCount { return units.Count(len(c.buckets)) }

// Bucket returns the i-th bucket of the cycle.
func (c *Channel) Bucket(i units.BucketIndex) Bucket { return c.buckets[i] }

// CycleLen returns the broadcast cycle length in bytes.
func (c *Channel) CycleLen() units.ByteCount { return c.cycle }

// StartInCycle returns bucket i's byte offset within the cycle.
func (c *Channel) StartInCycle(i units.BucketIndex) units.ByteOffset { return c.starts[i] }

// SizeOf returns bucket i's byte size.
//
//airlint:hotpath
func (c *Channel) SizeOf(i units.BucketIndex) units.ByteCount { return c.sizes[i] }

// NextBucketAt returns the index and absolute start time of the first
// bucket whose broadcast begins at or after time t. A client tuning in
// mid-bucket must wait for this boundary — the paper's initial wait.
//
//airlint:hotpath
func (c *Channel) NextBucketAt(t sim.Time) (units.BucketIndex, sim.Time) {
	base, off := units.CycleSplit(t, c.cycle)
	i, start := c.NextBucketFrom(off)
	return i, start.At(base)
}

// NextBucketFrom returns the first bucket whose broadcast begins at or
// after the in-cycle offset off, 0 <= off < CycleLen, and that bucket's
// offset; past the last start it returns bucket 0 at offset CycleLen, the
// next cycle's first bucket. It is NextBucketAt for a caller that has
// already reduced its time modulo the cycle.
//
//airlint:hotpath
func (c *Channel) NextBucketFrom(off units.ByteOffset) (units.BucketIndex, units.ByteOffset) {
	var i int
	if c.uniform > 0 {
		i = (off.Extent() + c.uniform - 1).Div(c.uniform)
	} else {
		i = c.firstStartFrom(off)
	}
	if i == len(c.starts) {
		return 0, units.Offset64(0).Advance(c.cycle)
	}
	return units.Index(i), c.starts[i]
}

// InFlightAt returns the index of the bucket being transmitted at time t
// and its absolute start time.
func (c *Channel) InFlightAt(t sim.Time) (units.BucketIndex, sim.Time) {
	base, off := units.CycleSplit(t, c.cycle)
	// The first start past off, minus one, is the bucket containing off;
	// starts[0] = 0 <= off keeps the result in range.
	i := c.firstStartFrom(off+1) - 1
	return units.Index(i), c.starts[i].At(base)
}

// firstStartFrom returns the least i with starts[i] >= off, or
// len(starts) if there is none: a binary search inlined rather than
// sort.Search's closure call.
//
//airlint:hotpath
func (c *Channel) firstStartFrom(off units.ByteOffset) int {
	lo, hi := 0, len(c.starts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.starts[m] < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// NextOccurrence returns the absolute start time of the next broadcast of
// bucket i beginning at or after time t.
func (c *Channel) NextOccurrence(i units.BucketIndex, t sim.Time) sim.Time {
	cand := c.starts[i].At(units.CycleBase(t, c.cycle))
	if cand < t {
		cand += c.cycle.Span()
	}
	return cand
}

// EndGiven returns the absolute finish time of bucket i when its broadcast
// starts at the given time.
//
//airlint:hotpath
func (c *Channel) EndGiven(i units.BucketIndex, start sim.Time) sim.Time {
	return start + c.sizes[i].Span()
}

// NextCycleStart returns the absolute time at which the next cycle begins
// at or after t.
func (c *Channel) NextCycleStart(t sim.Time) sim.Time {
	base := units.CycleBase(t, c.cycle)
	if base == t {
		return t
	}
	return base + c.cycle.Span()
}

// CountKind returns how many buckets of the given kind the cycle carries.
func (c *Channel) CountKind(k wire.Kind) units.BucketCount {
	n := 0
	for _, b := range c.buckets {
		if b.Kind() == k {
			n++
		}
	}
	return units.Count(n)
}

// BytesOfKind returns the total bytes per cycle used by buckets of kind k.
func (c *Channel) BytesOfKind(k wire.Kind) units.ByteCount {
	var n units.ByteCount
	for i, b := range c.buckets {
		if b.Kind() == k {
			n += c.sizes[i]
		}
	}
	return n
}
