package access

import (
	"testing"

	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// kindBucket is a fakeBucket with an explicit wire kind, for exercising
// the index/data allocation split.
type kindBucket struct {
	size int
	kind wire.Kind
}

func (b kindBucket) Size() units.ByteCount { return units.Bytes(b.size) }
func (b kindBucket) Kind() wire.Kind       { return b.kind }
func (b kindBucket) Encode() []byte        { return make([]byte, b.size) }

// k1Set wraps a channel in a one-channel replicated allocation with zero
// switch cost — the configuration whose walks must be byte-identical to
// the single-channel walkers.
func k1Set(t *testing.T, ch *channel.Channel) *multichannel.Set {
	t.Helper()
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// walkOnSet walks one client over a perfect K-channel set:
// WalkRecoverMulti with a nil Corrupter, the path a clean multichannel
// run takes.
func walkOnSet(set *multichannel.Set, c Client, arrival sim.Time, maxSteps int) (MultiResult, error) {
	return WalkRecoverMulti(set, func() Client { return c }, arrival, nil, RecoverPolicy{}, maxSteps)
}

// hopClient is a protocol-shaped client: it alternates serial reads and
// hinted dozes (computed with NextOccurrence against the logical cycle,
// exactly like the real schemes) and finishes after a fixed number of
// reads.
type hopClient struct {
	ch     *channel.Channel
	stride int
	quota  int
	reads  int
}

func (c *hopClient) OnBucket(i units.BucketIndex, end sim.Time) Step {
	c.reads++
	if c.reads >= c.quota {
		return Done(true)
	}
	if c.reads%2 == 1 {
		target := i.Step(c.stride, c.ch.NumBuckets())
		return DozeAt(target, c.ch.NextOccurrence(target, end))
	}
	return Next()
}

// TestWalkMultiK1Identity pins the K=1 identity guarantee at the walker
// level: for a protocol-shaped client over an uneven cycle, the clean
// multichannel walk on a one-channel replicated set must reproduce Walk
// exactly at every arrival offset.
func TestWalkMultiK1Identity(t *testing.T) {
	ch := testChannel(t, 10, 25, 5, 30, 10)
	set := k1Set(t, ch)
	cycle := int64(ch.CycleLen())
	for arrival := int64(0); arrival < 2*cycle; arrival += 3 {
		want, err := Walk(ch, &hopClient{ch: ch, stride: 3, quota: 6}, sim.Time(arrival), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := walkOnSet(set, &hopClient{ch: ch, stride: 3, quota: 6}, sim.Time(arrival), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result != want {
			t.Fatalf("arrival %d: multichannel walk %+v, Walk %+v", arrival, got.Result, want)
		}
		if got.Switches != 0 || got.SwitchWait != 0 {
			t.Fatalf("arrival %d: K=1 walk hopped: %d switches", arrival, got.Switches)
		}
	}
}

// probeCorrupter corrupts a fixed set of probe indices, mirroring the
// deterministic injector's counter-based interface.
type probeCorrupter map[int]bool

func (p probeCorrupter) Corrupt(probe int, size units.ByteCount) bool { return p[probe] }

// TestWalkRecoverMultiK1Identity pins the K=1 identity of the recovering
// walker under both recovery policies and a bounded retry budget.
func TestWalkRecoverMultiK1Identity(t *testing.T) {
	ch := testChannel(t, 10, 25, 5, 30, 10)
	set := k1Set(t, ch)
	bad := probeCorrupter{1: true, 3: true, 4: true, 7: true}
	for _, pol := range []RecoverPolicy{
		{},
		{NextCycle: true},
		{MaxRetries: 2},
		{NextCycle: true, MaxRetries: 3},
	} {
		for arrival := int64(0); arrival < 160; arrival += 7 {
			mk := func() Client { return &hopClient{ch: ch, stride: 2, quota: 5} }
			want, err := WalkRecover(ch, mk, sim.Time(arrival), bad, pol, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := WalkRecoverMulti(set, mk, sim.Time(arrival), bad, pol, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.FaultyResult != want {
				t.Fatalf("pol %+v arrival %d: WalkRecoverMulti %+v, WalkRecover %+v", pol, arrival, got.FaultyResult, want)
			}
		}
	}
}

// TestWalkMultiHopsToStaggeredReplica checks the replicated win: a doze
// to a bucket that comes sooner on the phase-shifted channel hops there,
// pays no tuning for the wait, and counts the switch.
func TestWalkMultiHopsToStaggeredReplica(t *testing.T) {
	ch := testChannel(t, 10, 10, 10, 10) // cycle 40; K=2 stagger 20
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Read bucket 0 (ends at 10), then doze to bucket 0's next broadcast:
	// channel 0 has it at 40, channel 1 (phase 20) at 20 — hop wins.
	c := &scriptClient{steps: []Step{DozeAt(0, ch.NextOccurrence(0, 10)), Done(true)}}
	res, err := walkOnSet(set, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 1 {
		t.Fatalf("Switches = %d, want 1", res.Switches)
	}
	if res.Access != 30 { // second read starts 20, ends 30
		t.Fatalf("Access = %d, want 30 (staggered replica at 20)", res.Access)
	}
	if res.Tuning != 20 {
		t.Fatalf("Tuning = %d, want 20 (two bucket reads, the wait dozed)", res.Tuning)
	}
	// The client saw logical indices both times.
	if len(c.seen) != 2 || c.seen[0] != 0 || c.seen[1] != 0 {
		t.Fatalf("client saw %v, want [0 0]", c.seen)
	}
}

// TestWalkMultiSwitchCostGatesHops checks that the switch cost makes a
// hop infeasible when staying is cheaper, and is charged (as dozed bytes,
// not tuning) when the hop still wins.
func TestWalkMultiSwitchCostGatesHops(t *testing.T) {
	ch := testChannel(t, 10, 10, 10, 10)
	// Cost 25: channel 1's copy of bucket 0 at 20 needs feasibility from
	// 10+25=35 -> occurrence 60; staying on channel 0 gives 40.
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 2, SwitchCost: 25})
	if err != nil {
		t.Fatal(err)
	}
	c := &scriptClient{steps: []Step{DozeAt(0, ch.NextOccurrence(0, 10)), Done(true)}}
	res, err := walkOnSet(set, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Fatalf("Switches = %d, want 0 (cost should gate the hop)", res.Switches)
	}
	if res.Access != 50 { // stays: next occurrence at 40, ends 50
		t.Fatalf("Access = %d, want 50", res.Access)
	}

	// Cost 5: hop is feasible from 15 -> channel 1 occurrence at 20 still
	// beats 40. SwitchWait records the 5 dozed bytes.
	set, err = multichannel.Build(ch, multichannel.Config{Channels: 2, SwitchCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	c = &scriptClient{steps: []Step{DozeAt(0, ch.NextOccurrence(0, 10)), Done(true)}}
	res, err = walkOnSet(set, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 1 || res.SwitchWait != 5 {
		t.Fatalf("Switches = %d SwitchWait = %d, want 1/5", res.Switches, res.SwitchWait)
	}
	if res.Access != 30 || res.Tuning != 20 {
		t.Fatalf("Access/Tuning = %d/%d, want 30/20 (retune dozed, not tuned)", res.Access, res.Tuning)
	}
}

// TestWalkMultiSerialScanStaysPut checks that StepNext never hops under
// the replicated policy: the contiguous next bucket on the current
// channel is always the earliest feasible occurrence.
func TestWalkMultiSerialScanStaysPut(t *testing.T) {
	ch := testChannel(t, 10, 20, 30, 40)
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := &scriptClient{steps: []Step{Next(), Next(), Next(), Next(), Next(), Done(true)}}
	res, err := walkOnSet(set, c, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Fatalf("serial scan hopped %d times, want 0", res.Switches)
	}
	want, err := Walk(ch, &scriptClient{steps: []Step{Next(), Next(), Next(), Next(), Next(), Done(true)}}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != want {
		t.Fatalf("serial scan result %+v, want %+v", res.Result, want)
	}
}

// TestWalkMultiSerialScanCrossesChannels: under a policy that splits the
// cycle, StepNext follows the logical order across channels. Within a
// channel the next local bucket is the next logical one and the walk
// stays put; at a channel's end it hops to wherever the next logical
// bucket lives.
func TestWalkMultiSerialScanCrossesChannels(t *testing.T) {
	ch := mixedChannel(t) // indices 0,1 index (10B); 2..5 data (30B)
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 2, Policy: multichannel.PolicyIndexData})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]Step, 7)
	for i := range steps {
		steps[i] = Next()
	}
	steps[6] = Done(true)
	c := &scriptClient{steps: steps}
	res, err := walkOnSet(set, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []units.BucketIndex{0, 1, 2, 3, 4, 5, 0}
	if len(c.seen) != len(want) {
		t.Fatalf("client saw logical %v, want %v", c.seen, want)
	}
	for i := range want {
		if c.seen[i] != want[i] {
			t.Fatalf("client saw logical %v, want %v", c.seen, want)
		}
	}
	if res.Switches != 2 {
		t.Fatalf("Switches = %d, want 2 (index -> data -> index)", res.Switches)
	}
}

// TestWalkMultiIndexDataFollowsPointerAcrossChannels drives an
// index/data split: the client reads an index bucket on the index
// channel and dozes to a data bucket that only the data channel carries.
func TestWalkMultiIndexDataFollowsPointerAcrossChannels(t *testing.T) {
	ch := mixedChannel(t) // indices 0,1 index (10B); 2..5 data (30B); cycle 140
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 2, Policy: multichannel.PolicyIndexData})
	if err != nil {
		t.Fatal(err)
	}
	// Arrive at 0: the earliest boundary is the index channel's bucket 0
	// (index cycle 20B). Doze to logical data bucket 3 — only on channel
	// 1, whose cycle is the 120 data bytes; bucket 3 is local 1 at offset
	// 30.
	c := &scriptClient{steps: []Step{DozeAt(3, ch.NextOccurrence(3, 10)), Done(true)}}
	res, err := walkOnSet(set, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 1 {
		t.Fatalf("Switches = %d, want 1 (index -> data hop)", res.Switches)
	}
	if len(c.seen) != 2 || c.seen[0] != 0 || c.seen[1] != 3 {
		t.Fatalf("client saw logical %v, want [0 3]", c.seen)
	}
	if res.Access != 60 { // data channel: bucket 3 at 30, ends 60
		t.Fatalf("Access = %d, want 60", res.Access)
	}
	if res.Tuning != 40 { // 10 (index) + 30 (data)
		t.Fatalf("Tuning = %d, want 40", res.Tuning)
	}
}

// TestWalkMultiUnhintedDozeStaysOnChannel checks the fallback: a doze
// without a hint wakes on the current channel at the requested time.
func TestWalkMultiUnhintedDozeStaysOnChannel(t *testing.T) {
	ch := testChannel(t, 10, 10, 10, 10)
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := &scriptClient{steps: []Step{Doze(35), Done(true)}}
	res, err := walkOnSet(set, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Fatalf("unhinted doze hopped")
	}
	if res.Access != 50 { // next boundary on channel 0 at/after 35 is 40; read ends 50
		t.Fatalf("Access = %d, want 50", res.Access)
	}
}

// TestWalkMultiDozePastError keeps Walk's protocol check.
func TestWalkMultiDozePastError(t *testing.T) {
	ch := testChannel(t, 10, 10)
	set := k1Set(t, ch)
	c := &scriptClient{steps: []Step{Doze(3)}}
	if _, err := walkOnSet(set, c, 0, 0); err == nil {
		t.Fatal("doze into the past should error")
	}
}

// TestWalkRecoverMultiRecoversOnCurrentChannel checks that a corrupted
// read restarts on the channel the receiver is tuned to, under both
// policies, against the index/data split (where the channels differ).
func TestWalkRecoverMultiRecoversOnCurrentChannel(t *testing.T) {
	ch := mixedChannel(t)
	set, err := multichannel.Build(ch, multichannel.Config{Channels: 2, Policy: multichannel.PolicyIndexData})
	if err != nil {
		t.Fatal(err)
	}
	// Probe 0 is corrupted. The receiver is on the index channel (bucket
	// 0 read ends at 10); restart re-reads the next index-channel bucket.
	bad := probeCorrupter{0: true}
	mk := func() Client { return &scriptClient{steps: []Step{Done(true)}} }
	res, err := WalkRecoverMulti(set, mk, 0, bad, RecoverPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || res.Switches != 0 {
		t.Fatalf("Restarts=%d Switches=%d, want 1/0", res.Restarts, res.Switches)
	}
	if res.Access != 20 { // index channel bucket 1 read 10..20
		t.Fatalf("Access = %d, want 20", res.Access)
	}
}

// mixedChannel builds a cycle with two 10-byte index buckets followed by
// four 30-byte data buckets.
func mixedChannel(t *testing.T) *channel.Channel {
	t.Helper()
	bs := []channel.Bucket{
		kindBucket{size: 10, kind: wire.KindIndex}, kindBucket{size: 10, kind: wire.KindIndex},
		kindBucket{size: 30, kind: wire.KindData}, kindBucket{size: 30, kind: wire.KindData},
		kindBucket{size: 30, kind: wire.KindData}, kindBucket{size: 30, kind: wire.KindData},
	}
	ch, err := channel.Build(bs)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}
