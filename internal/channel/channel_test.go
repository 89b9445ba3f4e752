package channel

import (
	"testing"
	"testing/quick"

	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// fakeBucket is a minimal Bucket for channel arithmetic tests.
type fakeBucket struct {
	size int
	kind wire.Kind
}

func (b fakeBucket) Size() units.ByteCount { return units.Bytes(b.size) }
func (b fakeBucket) Kind() wire.Kind       { return b.kind }
func (b fakeBucket) Encode() []byte        { return make([]byte, b.size) }

func buildTest(t *testing.T, sizes ...int) *Channel {
	t.Helper()
	bs := make([]Bucket, len(sizes))
	for i, s := range sizes {
		bs[i] = fakeBucket{size: s, kind: wire.KindData}
	}
	c, err := Build(bs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildOffsets(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	if c.CycleLen() != 60 {
		t.Fatalf("cycle %d, want 60", c.CycleLen())
	}
	wantStarts := []units.ByteOffset{0, 10, 30}
	for i, w := range wantStarts {
		if c.StartInCycle(units.Index(i)) != w {
			t.Fatalf("start[%d] = %d, want %d", i, c.StartInCycle(units.Index(i)), w)
		}
	}
	if c.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d", c.NumBuckets())
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("empty channel accepted")
	}
	if _, err := Build([]Bucket{fakeBucket{size: 0}}); err == nil {
		t.Fatal("zero-size bucket accepted")
	}
	if _, err := Build([]Bucket{nil}); err == nil {
		t.Fatal("nil bucket accepted")
	}
}

func TestNextBucketAt(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	cases := []struct {
		t         sim.Time
		wantIdx   units.BucketIndex
		wantStart sim.Time
	}{
		{0, 0, 0},          // exactly at cycle start
		{1, 1, 10},         // mid bucket 0: wait for bucket 1
		{10, 1, 10},        // exactly at bucket 1 start
		{29, 2, 30},        // just before bucket 2
		{30, 2, 30},        // at bucket 2 start
		{31, 0, 60},        // mid last bucket: wrap to next cycle
		{59, 0, 60},        // end of cycle
		{60, 0, 60},        // next cycle start
		{61, 1, 70},        // second cycle, mid bucket 0
		{60 + 45, 0, 120},  // second cycle, mid last bucket
		{600, 0, 600},      // tenth cycle boundary
		{615, 2, 600 + 30}, // tenth cycle, between buckets
	}
	for _, cse := range cases {
		idx, start := c.NextBucketAt(cse.t)
		if idx != cse.wantIdx || start != cse.wantStart {
			t.Errorf("NextBucketAt(%d) = (%d, %d), want (%d, %d)", cse.t, idx, start, cse.wantIdx, cse.wantStart)
		}
	}
}

func TestInFlightAt(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	cases := []struct {
		t         sim.Time
		wantIdx   units.BucketIndex
		wantStart sim.Time
	}{
		{0, 0, 0},
		{9, 0, 0},
		{10, 1, 10},
		{29, 1, 10},
		{30, 2, 30},
		{59, 2, 30},
		{60, 0, 60},
		{75, 1, 70},
	}
	for _, cse := range cases {
		idx, start := c.InFlightAt(cse.t)
		if idx != cse.wantIdx || start != cse.wantStart {
			t.Errorf("InFlightAt(%d) = (%d, %d), want (%d, %d)", cse.t, idx, start, cse.wantIdx, cse.wantStart)
		}
	}
}

func TestNextOccurrence(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	if got := c.NextOccurrence(1, 0); got != 10 {
		t.Fatalf("NextOccurrence(1, 0) = %d, want 10", got)
	}
	if got := c.NextOccurrence(1, 10); got != 10 {
		t.Fatalf("NextOccurrence(1, 10) = %d, want 10 (inclusive)", got)
	}
	if got := c.NextOccurrence(1, 11); got != 70 {
		t.Fatalf("NextOccurrence(1, 11) = %d, want 70", got)
	}
	if got := c.NextOccurrence(0, 35); got != 60 {
		t.Fatalf("NextOccurrence(0, 35) = %d, want 60", got)
	}
}

func TestNextCycleStart(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	for _, cse := range []struct{ t, want sim.Time }{
		{0, 0}, {1, 60}, {59, 60}, {60, 60}, {61, 120}, {600, 600},
	} {
		if got := c.NextCycleStart(cse.t); got != cse.want {
			t.Errorf("NextCycleStart(%d) = %d, want %d", cse.t, got, cse.want)
		}
	}
}

func TestEndGiven(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	if got := c.EndGiven(2, 630); got != 660 {
		t.Fatalf("EndGiven = %d, want 660", got)
	}
}

func TestKindAccounting(t *testing.T) {
	bs := []Bucket{
		fakeBucket{size: 8, kind: wire.KindIndex},
		fakeBucket{size: 100, kind: wire.KindData},
		fakeBucket{size: 8, kind: wire.KindIndex},
		fakeBucket{size: 100, kind: wire.KindData},
	}
	c, err := Build(bs)
	if err != nil {
		t.Fatal(err)
	}
	if c.CountKind(wire.KindIndex) != 2 || c.CountKind(wire.KindData) != 2 {
		t.Fatal("CountKind wrong")
	}
	if c.BytesOfKind(wire.KindIndex) != 16 || c.BytesOfKind(wire.KindData) != 200 {
		t.Fatal("BytesOfKind wrong")
	}
}

// Property: for any bucket sizes and any time, NextBucketAt returns a
// bucket boundary at or after t, no further than one full cycle away, and
// the returned start is genuinely the start of the returned index.
func TestQuickNextBucketAt(t *testing.T) {
	f := func(rawSizes []uint8, rawT uint32) bool {
		var bs []Bucket
		for _, s := range rawSizes {
			if s > 0 {
				bs = append(bs, fakeBucket{size: int(s), kind: wire.KindData})
			}
		}
		if len(bs) == 0 {
			return true
		}
		c, err := Build(bs)
		if err != nil {
			return false
		}
		tm := sim.Time(rawT)
		idx, start := c.NextBucketAt(tm)
		if start < tm || units.Elapsed(tm, start) > c.CycleLen() {
			return false
		}
		return units.CycleOffset(start, c.CycleLen()) == c.StartInCycle(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUniformDivisionMatchesSearch holds NextBucketFrom's division on an
// equal-size cycle to the binary search every other cycle takes, at
// every in-cycle offset.
func TestUniformDivisionMatchesSearch(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for size := 1; size <= 7; size++ {
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = size
			}
			c := buildTest(t, sizes...)
			if c.uniform != units.Bytes(size) {
				t.Fatalf("%d buckets of %d bytes: uniform = %d", n, size, c.uniform)
			}
			for off := units.Offset64(0); off.Extent() < c.CycleLen(); off++ {
				gi, gs := c.NextBucketFrom(off)
				wi, ws := c.firstStartFrom(off), units.Offset64(0).Advance(c.CycleLen())
				if wi == n {
					wi = 0
				} else {
					ws = c.starts[wi]
				}
				if gi != units.Index(wi) || gs != ws {
					t.Fatalf("%d buckets of %d bytes: NextBucketFrom(%d) = (%d, %d), search (%d, %d)", n, size, off, gi, gs, wi, ws)
				}
			}
		}
	}
	if c := buildTest(t, 4, 4, 5); c.uniform != 0 {
		t.Fatalf("mixed sizes: uniform = %d, want 0", c.uniform)
	}
}

// Property: InFlightAt(t) contains t within [start, start+size).
func TestQuickInFlightAt(t *testing.T) {
	f := func(rawSizes []uint8, rawT uint32) bool {
		var bs []Bucket
		for _, s := range rawSizes {
			if s > 0 {
				bs = append(bs, fakeBucket{size: int(s), kind: wire.KindData})
			}
		}
		if len(bs) == 0 {
			return true
		}
		c, err := Build(bs)
		if err != nil {
			return false
		}
		tm := sim.Time(rawT)
		idx, start := c.InFlightAt(tm)
		return start <= tm && tm < start+c.SizeOf(idx).Span()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBoundaryArithmetic pins the geometry at the exact edges the
// multichannel walkers depend on: t==0, starts that coincide with cycle
// boundaries, and the final bucket's wraparound into the next cycle.
func TestBoundaryArithmetic(t *testing.T) {
	c := buildTest(t, 10, 20, 30)
	cycle := c.CycleLen().Span()

	// t == 0: every query resolves inside the first cycle with no wrap.
	if idx, start := c.NextBucketAt(0); idx != 0 || start != 0 {
		t.Errorf("NextBucketAt(0) = (%d, %d), want (0, 0)", idx, start)
	}
	if idx, start := c.InFlightAt(0); idx != 0 || start != 0 {
		t.Errorf("InFlightAt(0) = (%d, %d), want (0, 0)", idx, start)
	}
	for i, want := range []sim.Time{0, 10, 30} {
		if got := c.NextOccurrence(units.Index(i), 0); got != want {
			t.Errorf("NextOccurrence(%d, 0) = %d, want %d", i, got, want)
		}
	}

	// Exact cycle boundaries: at t = k*cycle the first bucket starts NOW,
	// in flight is the first bucket, and occurrences land in that cycle.
	for _, k := range []sim.Time{1, 2, 7} {
		at := k * cycle
		if idx, start := c.NextBucketAt(at); idx != 0 || start != at {
			t.Errorf("NextBucketAt(%d) = (%d, %d), want (0, %d)", at, idx, start, at)
		}
		if idx, start := c.InFlightAt(at); idx != 0 || start != at {
			t.Errorf("InFlightAt(%d) = (%d, %d), want (0, %d)", at, idx, start, at)
		}
		if got := c.NextOccurrence(2, at); got != at+30 {
			t.Errorf("NextOccurrence(2, %d) = %d, want %d", at, got, at+30)
		}
		// One byte earlier: still inside the previous cycle's final bucket.
		if idx, start := c.InFlightAt(at - 1); idx != 2 || start != at-30 {
			t.Errorf("InFlightAt(%d) = (%d, %d), want (2, %d)", at-1, idx, start, at-30)
		}
	}

	// Final-bucket wraparound: one byte into the last bucket, its next
	// occurrence is a full cycle after the current one began.
	if got := c.NextOccurrence(2, 31); got != 30+cycle {
		t.Errorf("NextOccurrence(2, 31) = %d, want %d", got, 30+cycle)
	}
	// ... and at its exact start the occurrence is inclusive.
	if got := c.NextOccurrence(2, 30); got != 30 {
		t.Errorf("NextOccurrence(2, 30) = %d, want 30", got)
	}
	// Mid final bucket, the next boundary is the next cycle's first bucket.
	if idx, start := c.NextBucketAt(5*cycle + 31); idx != 0 || start != 6*cycle {
		t.Errorf("NextBucketAt(mid final) = (%d, %d), want (0, %d)", idx, start, 6*cycle)
	}

	// Single-bucket channel: cycle == bucket, every boundary coincides.
	one := buildTest(t, 7)
	if idx, start := one.NextBucketAt(7); idx != 0 || start != 7 {
		t.Errorf("one-bucket NextBucketAt(7) = (%d, %d), want (0, 7)", idx, start)
	}
	if idx, start := one.NextBucketAt(6); idx != 0 || start != 7 {
		t.Errorf("one-bucket NextBucketAt(6) = (%d, %d), want (0, 7)", idx, start)
	}
	if idx, start := one.InFlightAt(13); idx != 0 || start != 7 {
		t.Errorf("one-bucket InFlightAt(13) = (%d, %d), want (0, 7)", idx, start)
	}
	if got := one.NextOccurrence(0, 8); got != 14 {
		t.Errorf("one-bucket NextOccurrence(0, 8) = %d, want 14", got)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on empty input did not panic")
		}
	}()
	MustBuild(nil)
}
