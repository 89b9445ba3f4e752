package multichannel

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// fakeBucket is a minimal channel.Bucket for geometry tests.
type fakeBucket struct {
	size units.ByteCount
	kind wire.Kind
}

func (b fakeBucket) Size() units.ByteCount { return b.size }
func (b fakeBucket) Kind() wire.Kind       { return b.kind }
func (b fakeBucket) Encode() []byte        { return make([]byte, int(b.size)) }

// buildCycle assembles a channel from (size, kind) pairs.
func buildCycle(t *testing.T, specs ...fakeBucket) *channel.Channel {
	t.Helper()
	buckets := make([]channel.Bucket, len(specs))
	for i, s := range specs {
		buckets[i] = s
	}
	ch, err := channel.Build(buckets)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// onemLike is a small (1,m)-flavoured cycle: two index buckets, then data,
// then two more index buckets, then data. 6 data buckets of 30 bytes, 4
// index buckets of 10 bytes; cycle = 220 bytes.
func onemLike(t *testing.T) *channel.Channel {
	t.Helper()
	idx := fakeBucket{size: 10, kind: wire.KindIndex}
	dat := fakeBucket{size: 30, kind: wire.KindData}
	return buildCycle(t, idx, idx, dat, dat, dat, idx, idx, dat, dat, dat)
}

// flatLike is an all-data cycle of n buckets, 20 bytes each.
func flatLike(t *testing.T, n int) *channel.Channel {
	t.Helper()
	specs := make([]fakeBucket, n)
	for i := range specs {
		specs[i] = fakeBucket{size: 20, kind: wire.KindData}
	}
	return buildCycle(t, specs...)
}

func TestPolicyKindStringsAndParse(t *testing.T) {
	for _, k := range []PolicyKind{PolicyReplicated, PolicyIndexData, PolicySkewed} {
		got, err := ParsePolicy(k.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParsePolicy("frequency"); err == nil {
		t.Error("unknown policy name should not parse")
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyReplicated {
		t.Errorf("empty name should default to replicated, got %v, %v", p, err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Channels: 1},
		{Channels: 8, SwitchCost: 100, Policy: PolicyReplicated},
		{Channels: 4, Policy: PolicyIndexData, IndexChannels: 2},
		{Channels: 3, Policy: PolicySkewed, Skew: 1.2},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{Channels: -1},
		{Channels: MaxChannels + 1},
		{Channels: 2, SwitchCost: -1},
		{Channels: 2, IndexChannels: -1},
		{Channels: 2, Skew: -0.5},
		{Channels: 2, Policy: PolicyIndexData, IndexChannels: 2}, // no data channel left
		{Channels: 1, Policy: PolicyIndexData},                   // ditto, via the default ic=1
		{Channels: 2, Policy: PolicyKind(9)},
		{SwitchCost: 64}, // cost without channels
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestBuildDisabledConfigFails(t *testing.T) {
	if _, err := Build(flatLike(t, 4), Config{}); err == nil {
		t.Fatal("building a Set from a disabled config should fail")
	}
}

// TestReplicatedK1Identity pins the K=1 identity at the geometry level:
// every query primitive must agree exactly with the base channel's.
func TestReplicatedK1Identity(t *testing.T) {
	base := onemLike(t)
	set, err := Build(base, Config{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	cycle := int64(base.CycleLen())
	for tt := int64(0); tt < 3*cycle; tt += 7 {
		at := sim.Time(tt)
		ch, local, start := set.FirstBucket(at)
		wantIdx, wantStart := base.NextBucketAt(at)
		if ch != 0 || local != wantIdx || start != wantStart {
			t.Fatalf("FirstBucket(%d) = (%d, %d, %d), want (0, %d, %d)", tt, ch, local, start, wantIdx, wantStart)
		}
		n := int(base.NumBuckets())
		for i := 0; i < n; i++ {
			target := units.Index(i)
			fch, flocal, fstart := set.NextFeasible(target, at, 0)
			if fch != 0 || flocal != target {
				t.Fatalf("NextFeasible(%d, %d) landed on (%d, %d)", i, tt, fch, flocal)
			}
			if want := base.NextOccurrence(target, at); fstart != want {
				t.Fatalf("NextFeasible(%d, %d) start %d, want NextOccurrence %d", i, tt, fstart, want)
			}
		}
		if got, want := set.NextCycleStartOn(0, at), base.NextCycleStart(at); got != want {
			t.Fatalf("NextCycleStartOn(0, %d) = %d, want %d", tt, got, want)
		}
	}
}

func TestReplicatedStaggeredPhases(t *testing.T) {
	base := flatLike(t, 5) // cycle 100 bytes
	set, err := Build(base, Config{Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if set.K() != 4 {
		t.Fatalf("K = %d, want 4", set.K())
	}
	// Bucket 0 starts at phase j*25 on channel j; from t=0 the earliest
	// feasible occurrence of bucket 0 (no cost, from channel 0) is t=0.
	ch, _, start := set.NextFeasible(0, 0, 0)
	if ch != 0 || start != 0 {
		t.Fatalf("bucket 0 at t=0: channel %d start %d, want channel 0 start 0", ch, start)
	}
	// From t=1, channel 1's copy at phase 25 beats channel 0's next full
	// cycle at 100.
	ch, _, start = set.NextFeasible(0, 1, 0)
	if ch != 1 || start != 25 {
		t.Fatalf("bucket 0 at t=1: channel %d start %d, want channel 1 start 25", ch, start)
	}
	// A switch cost shifts feasibility: cost 80 makes channel 1's copy
	// feasible only from t=81 > 25, so its next occurrence is 125; channel
	// 0's own copy at 100 wins.
	costSet, err := Build(base, Config{Channels: 4, SwitchCost: 80})
	if err != nil {
		t.Fatal(err)
	}
	ch, _, start = costSet.NextFeasible(0, 1, 0)
	if ch != 0 || start != 100 {
		t.Fatalf("bucket 0 at t=1 with cost 80: channel %d start %d, want channel 0 start 100", ch, start)
	}
}

func TestReplicatedInitialWaitDropsWithK(t *testing.T) {
	base := flatLike(t, 5)
	for _, k := range []int{1, 2, 4} {
		set, err := Build(base, Config{Channels: k})
		if err != nil {
			t.Fatal(err)
		}
		// Max initial wait over a sample of arrival times shrinks ~1/K.
		var worst sim.Time
		for tt := int64(0); tt < 100; tt++ {
			_, _, start := set.FirstBucket(sim.Time(tt))
			if w := start - sim.Time(tt); w > worst {
				worst = w
			}
		}
		if maxWait := sim.Time(int64(20)); k > 1 && worst >= maxWait {
			t.Errorf("K=%d worst initial wait %d not below one bucket %d", k, worst, maxWait)
		}
	}
}

func TestIndexDataSplit(t *testing.T) {
	base := onemLike(t)
	set, err := Build(base, Config{Channels: 3, Policy: PolicyIndexData})
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0 carries the 4 index buckets (40 bytes); channels 1 and 2
	// split the 6 data buckets 3/3 (90 bytes each).
	if got := set.ChannelCycle(0); got != 40 {
		t.Errorf("index channel cycle %d, want 40", got)
	}
	if a, b := set.ChannelCycle(1), set.ChannelCycle(2); a != 90 || b != 90 {
		t.Errorf("data channel cycles %d/%d, want 90/90", a, b)
	}
	// Every logical bucket must be placed exactly once (nothing is
	// replicated in the index/data split with one index channel).
	n := int(set.NumLogical())
	for i := 0; i < n; i++ {
		got := len(refPlaces(set, units.Index(i)))
		if got != 1 {
			t.Errorf("logical bucket %d placed %d times, want 1", i, got)
		}
	}
	// Logical identity survives the mapping.
	for j := 0; j < set.K(); j++ {
		m := set.member[j]
		for p := range m.logical {
			li := set.Logical(j, units.Index(p))
			if set.SizeOfLocal(j, units.Index(p)) != base.SizeOf(li) {
				t.Fatalf("channel %d local %d size mismatch against logical %d", j, p, li)
			}
		}
	}
}

func TestIndexDataStaggersIndexChannels(t *testing.T) {
	base := onemLike(t)
	set, err := Build(base, Config{Channels: 4, Policy: PolicyIndexData, IndexChannels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p0, p1 := set.member[0].phase, set.member[1].phase; p0 != 0 || p1 != 20 {
		t.Errorf("index channel phases %d/%d, want 0/20 (half the 40-byte index cycle)", p0, p1)
	}
	// Index buckets are now reachable on two channels.
	if got := len(refPlaces(set, 0)); got != 2 {
		t.Errorf("index bucket placed %d times, want 2", got)
	}
}

func TestIndexDataRejectsAllDataCycle(t *testing.T) {
	if _, err := Build(flatLike(t, 6), Config{Channels: 2, Policy: PolicyIndexData}); err == nil {
		t.Fatal("indexdata over an all-data cycle should fail")
	}
}

func TestSkewedPartition(t *testing.T) {
	base := flatLike(t, 12)
	set, err := Build(base, Config{Channels: 3, Policy: PolicySkewed, Skew: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// Hot channel carries the head of the popularity order and is the
	// shortest cycle.
	if set.ChannelCycle(0) >= set.ChannelCycle(2) {
		t.Errorf("hot channel cycle %d not shorter than cold %d", set.ChannelCycle(0), set.ChannelCycle(2))
	}
	if got := set.Logical(0, 0); got != 0 {
		t.Errorf("hot channel should open with logical bucket 0, got %d", got)
	}
	// Every logical bucket is placed exactly once and groups are
	// contiguous in logical order.
	seen := make([]int, int(set.NumLogical()))
	for i := range seen {
		seen[i] = len(refPlaces(set, units.Index(i)))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("logical bucket %d placed %d times, want 1", i, n)
		}
	}
}

func TestSkewedReplicatesIndexBuckets(t *testing.T) {
	base := onemLike(t)
	set, err := Build(base, Config{Channels: 2, Policy: PolicySkewed})
	if err != nil {
		t.Fatal(err)
	}
	// The 4 index buckets appear on both channels; the 6 data buckets on
	// exactly one.
	idxPlaced, dataPlaced := 0, 0
	n := int(base.NumBuckets())
	for i := 0; i < n; i++ {
		if base.Bucket(units.Index(i)).Kind() == wire.KindData {
			dataPlaced += len(refPlaces(set, units.Index(i)))
		} else {
			idxPlaced += len(refPlaces(set, units.Index(i)))
		}
	}
	if idxPlaced != 8 {
		t.Errorf("index placements %d, want 8 (4 buckets x 2 channels)", idxPlaced)
	}
	if dataPlaced != 6 {
		t.Errorf("data placements %d, want 6 (each on one channel)", dataPlaced)
	}
}

func TestSkewedRejectsTooManyChannels(t *testing.T) {
	if _, err := Build(flatLike(t, 3), Config{Channels: 4, Policy: PolicySkewed}); err == nil {
		t.Fatal("more channels than data buckets should fail")
	}
}

// TestOccurrenceArithmetic exercises the phase-shifted occurrence math
// directly, including occurrences that precede the phase offset.
func TestOccurrenceArithmetic(t *testing.T) {
	base := flatLike(t, 3) // cycle 60
	set, err := Build(base, Config{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &set.member[1] // phase 30
	// Bucket 2 starts at local offset 40; on the shifted channel its
	// occurrences are ..., 10, 70, 130, ... (40 + 30 - 60 = 10).
	for _, tc := range []struct{ t, want int64 }{
		{0, 10}, {10, 10}, {11, 70}, {70, 70}, {71, 130},
	} {
		if got := m.nextOccurrence(2, sim.Time(tc.t)); got != sim.Time(tc.want) {
			t.Errorf("nextOccurrence(2, %d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	// Cycle starts on the shifted channel: ..., 30, 90, ...
	for _, tc := range []struct{ t, want int64 }{
		{0, 30}, {30, 30}, {31, 90},
	} {
		if got := m.nextCycleStart(sim.Time(tc.t)); got != sim.Time(tc.want) {
			t.Errorf("nextCycleStart(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	// Boundaries: at t=0 the shifted channel is mid-bucket (the bucket
	// that started at -20 ends at 10); the next complete bucket is bucket
	// 2 at 10.
	idx, start := m.nextBucketAt(0)
	if idx != 2 || start != 10 {
		t.Errorf("nextBucketAt(0) = (%d, %d), want (2, 10)", idx, start)
	}
	if idx, start := set.NextOnChannel(1, 0); idx != 2 || start != 10 {
		t.Errorf("NextOnChannel(1, 0) = (%d, %d), want (2, 10)", idx, start)
	}
	// The one-division occurrence: bucket 2 from t=11 on channel 1 alone
	// (channel 0 broadcasts it at 40, 100, ...: a cost of 60 pushes
	// channel 0's candidates past channel 1's 70).
	costly, err := Build(base, Config{Channels: 2, SwitchCost: 60})
	if err != nil {
		t.Fatal(err)
	}
	if ch, local, at := costly.NextFeasible(2, 11, 1); ch != 1 || local != 2 || at != 70 {
		t.Errorf("NextFeasible(2, 11, cur 1) = (%d, %d, %d), want (1, 2, 70)", ch, local, at)
	}
}

// TestBuildDeterministic pins that the Set is a pure function of its
// inputs: two builds of the same config yield identical geometry.
func TestBuildDeterministic(t *testing.T) {
	base := onemLike(t)
	for _, cfg := range []Config{
		{Channels: 3},
		{Channels: 3, Policy: PolicyIndexData},
		{Channels: 2, Policy: PolicySkewed, Skew: 1.1},
	} {
		a, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.placeAt, b.placeAt) || !reflect.DeepEqual(a.place, b.place) {
			t.Errorf("%+v: placements differ across builds", cfg)
		}
		for j := 0; j < a.K(); j++ {
			if a.member[j].phase != b.member[j].phase {
				t.Errorf("%+v: channel %d phase differs", cfg, j)
			}
			if !reflect.DeepEqual(a.member[j].logical, b.member[j].logical) {
				t.Errorf("%+v: channel %d logical map differs", cfg, j)
			}
		}
	}
}

func TestSplitContiguousBalancesAndCovers(t *testing.T) {
	seq := make([]units.BucketIndex, 10)
	w := make([]float64, 10)
	for i := range seq {
		seq[i] = units.Index(i)
		w[i] = 1
	}
	for parts := 1; parts <= 10; parts++ {
		groups := splitContiguous(seq, w, parts)
		if len(groups) != parts {
			t.Fatalf("parts=%d: %d groups", parts, len(groups))
		}
		total := 0
		for g, grp := range groups {
			if len(grp) == 0 {
				t.Fatalf("parts=%d: group %d empty", parts, g)
			}
			total += len(grp)
		}
		if total != len(seq) {
			t.Fatalf("parts=%d: %d elements covered, want %d", parts, total, len(seq))
		}
	}
	// A pathologically heavy head must not starve later groups.
	w[0] = 1000
	groups := splitContiguous(seq, w, 4)
	for g, grp := range groups {
		if len(grp) == 0 {
			t.Fatalf("heavy head: group %d empty (%v)", g, groups)
		}
	}
}

func ExamplePolicyKind_String() {
	fmt.Println(PolicyReplicated, PolicyIndexData, PolicySkewed)
	// Output: replicated indexdata skewed
}
