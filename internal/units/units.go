// Package units defines distinct static types for the quantities the
// broadcast testbed measures: byte amounts, byte positions within a
// broadcast cycle, bucket indices and bucket counts.
//
// The paper's entire measurement model is "time measured in bytes"
// (EDBT 2002 §4.1): access time and tuning time are byte counts, bucket
// offsets are byte positions, and the simulator clock advances one unit
// per broadcast byte. Passing all of these around as bare int/int64
// makes unit-confusion bugs — adding an offset to a count, indexing with
// a byte position — invisible to the compiler, and any such slip silently
// corrupts every reproduced figure. Defined types make the arithmetic
// contracts checkable: Go rejects mixed-type arithmetic outright, and
// the unitsafety analyzer (internal/lint) rejects the conversions that
// would launder one unit into another.
//
// Conversion rules (enforced by unitsafety, see DESIGN.md §7):
//
//   - Raw numbers enter the unit system only through the constructors
//     Bytes, Bytes64, Offset64, Index and Count.
//   - Cross-unit conversions happen only through the methods below
//     (Span, Elapsed, At, Advance, Extent, CycleBase, CycleOffset, ...);
//     a direct conversion such as ByteCount(off) is a lint error
//     everywhere outside this package.
//   - Converting out of the unit system (int64(n), float64(n)) is always
//     allowed: sinks like stats accumulators and fmt are unit-blind.
//   - Multiplying or dividing two values of the same unit does not yield
//     that unit; use Times, Div and Mod instead.
package units

import "github.com/airindex/airindex/internal/sim"

// ByteCount is an amount of bytes: a bucket size, a cycle length, a
// tuning-time or access-time total.
type ByteCount int64

// ByteOffset is a byte position within a broadcast cycle, in [0, cycle).
type ByteOffset int64

// BucketIndex is a bucket's position within the broadcast cycle,
// in [0, NumBuckets). A negative index means "no bucket".
type BucketIndex int

// BucketCount is a number of buckets.
type BucketCount int

// Bytes converts a raw int into a byte amount.
func Bytes(n int) ByteCount { return ByteCount(n) }

// Bytes64 converts a raw int64 into a byte amount.
func Bytes64(n int64) ByteCount { return ByteCount(n) }

// Offset64 converts a raw int64 into a byte position.
func Offset64(n int64) ByteOffset { return ByteOffset(n) }

// Index converts a raw int into a bucket index.
func Index(i int) BucketIndex { return BucketIndex(i) }

// Count converts a raw int into a bucket count.
func Count(n int) BucketCount { return BucketCount(n) }

// Span returns the on-air duration of n bytes. The channel transmits one
// byte per virtual time unit, so the conversion is the identity — but it
// is the only sanctioned bridge from byte amounts to sim.Time.
func (n ByteCount) Span() sim.Time { return sim.Time(n) }

// Times returns n scaled by a dimensionless factor k.
func (n ByteCount) Times(k int) ByteCount { return n * ByteCount(k) }

// Div returns how many whole m-byte units fit in n. Dividing bytes by
// bytes yields a dimensionless ratio, hence the int return.
func (n ByteCount) Div(m ByteCount) int { return int(n / m) }

// Mod returns the remainder of n modulo m; the remainder of a byte
// amount by a byte amount is still bytes.
func (n ByteCount) Mod(m ByteCount) ByteCount { return n % m }

// Elapsed returns the bytes broadcast between two instants. This is the
// paper's measurement primitive: access time is Elapsed(arrival, end).
func Elapsed(from, to sim.Time) ByteCount { return ByteCount(to - from) }

// CycleBase returns the absolute start time of the broadcast cycle
// containing t, for a cycle of the given length.
func CycleBase(t sim.Time, cycle ByteCount) sim.Time {
	c := sim.Time(cycle)
	return (t / c) * c
}

// CycleOffset returns t's byte position within its broadcast cycle.
func CycleOffset(t sim.Time, cycle ByteCount) ByteOffset {
	return ByteOffset(t % sim.Time(cycle))
}

// CycleSplit returns CycleBase and CycleOffset of t together, with one
// division.
func CycleSplit(t sim.Time, cycle ByteCount) (sim.Time, ByteOffset) {
	c := sim.Time(cycle)
	base := (t / c) * c
	return base, ByteOffset(t - base)
}

// At anchors an in-cycle offset to an absolute cycle start time.
func (o ByteOffset) At(base sim.Time) sim.Time { return base + sim.Time(o) }

// Advance moves a byte position forward by a byte amount.
func (o ByteOffset) Advance(n ByteCount) ByteOffset { return o + ByteOffset(n) }

// Extent returns the byte amount from the cycle start to this position —
// the one meaningful offset→count reading (offset 0 spans zero bytes).
func (o ByteOffset) Extent() ByteCount { return ByteCount(o) }

// Next returns the index after i, wrapping at the end of the cycle.
func (i BucketIndex) Next(n BucketCount) BucketIndex {
	return i.Step(1, n)
}

// Step returns the index k buckets after i, wrapping at the end of the
// cycle. k must be non-negative and n positive.
func (i BucketIndex) Step(k int, n BucketCount) BucketIndex {
	return (i + BucketIndex(k)) % BucketIndex(n)
}

// InCycle reports whether i is a valid index for a cycle of n buckets.
func (i BucketIndex) InCycle(n BucketCount) bool {
	return i >= 0 && int(i) < int(n)
}

// IsLast reports whether i is the final bucket of a cycle of n buckets.
func (i BucketIndex) IsLast(n BucketCount) bool {
	return int(i) == int(n)-1
}
