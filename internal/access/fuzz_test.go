package access

import (
	"testing"

	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// bitCorrupter corrupts the reads whose probe index is a set bit of the
// mask; reads past the 64th are clean.
type bitCorrupter uint64

func (m bitCorrupter) Corrupt(probe int, size units.ByteCount) bool {
	return probe < 64 && m>>probe&1 == 1
}

// fuzzClient replays a byte script, one op per read, and finishes when
// the script runs out. Each byte's low two bits pick the op and the rest
// parameterize it:
//
//	0  StepNext
//	1  hinted doze to the bucket b>>2+1 positions ahead, at its next
//	   occurrence (what the indexed schemes do)
//	2  unhinted doze to b>>2 bytes past the read's end
//	3  StepDone, found when bit 2 is set
type fuzzClient struct {
	ch     *channel.Channel
	script []byte
	reads  int
}

func (c *fuzzClient) OnBucket(i units.BucketIndex, end sim.Time) Step {
	if c.reads >= len(c.script) {
		return Done(true)
	}
	b := c.script[c.reads]
	c.reads++
	switch b & 3 {
	case 0:
		return Next()
	case 1:
		target := i.Step(int(b>>2)+1, c.ch.NumBuckets())
		return DozeAt(target, c.ch.NextOccurrence(target, end))
	case 2:
		return Doze(end + sim.Time(b>>2))
	default:
		return Done(b&4 != 0)
	}
}

// FuzzWalkK1Identity holds the walk loop's two geometry branches to each
// other: on any cycle, arrival, corruption pattern and retry policy,
// WalkRecoverMulti over a one-channel replicated set with zero switch
// cost must reproduce WalkRecover over the channel exactly — result,
// error text and no switches. On a perfect channel Walk must agree with
// both.
func FuzzWalkK1Identity(f *testing.F) {
	f.Add([]byte{10, 25, 5, 30, 10}, uint32(0), uint64(0), false, uint8(0), []byte{0, 1, 2, 0, 3})
	f.Add([]byte{10, 25, 5, 30, 10}, uint32(47), uint64(0b10011010), true, uint8(3), []byte{1, 5, 0, 9, 2, 6, 7})
	f.Add([]byte{1, 200, 3}, uint32(1000), uint64(1<<63|1), false, uint8(1), []byte{0, 0, 0, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, sizes []byte, arrival uint32, corrupt uint64, nextCycle bool, maxRetries uint8, script []byte) {
		if len(sizes) == 0 || len(sizes) > 64 || len(script) > 64 {
			t.Skip()
		}
		bs := make([]channel.Bucket, len(sizes))
		for i, s := range sizes {
			bs[i] = fakeBucket(int(s)%64 + 1)
		}
		ch := channel.MustBuild(bs)
		set, err := multichannel.Build(ch, multichannel.Config{Channels: 1})
		if err != nil {
			t.Fatal(err)
		}
		at := sim.Time(arrival)
		pol := RecoverPolicy{NextCycle: nextCycle, MaxRetries: int(maxRetries % 8)}
		mk := func() Client { return &fuzzClient{ch: ch, script: script} }
		const budget = 1 << 13

		same := func(what string, single FaultyResult, errS error, multi MultiResult, errM error) {
			t.Helper()
			if multi.FaultyResult != single || multi.Switches != 0 || multi.SwitchWait != 0 {
				t.Fatalf("%s: K=1 walk %+v, single-channel walk %+v", what, multi, single)
			}
			if (errS == nil) != (errM == nil) || errS != nil && errS.Error() != errM.Error() {
				t.Fatalf("%s: K=1 error %v, single-channel error %v", what, errM, errS)
			}
		}

		single, errS := WalkRecover(ch, mk, at, bitCorrupter(corrupt), pol, budget)
		multi, errM := WalkRecoverMulti(set, mk, at, bitCorrupter(corrupt), pol, budget)
		same("corrupted", single, errS, multi, errM)

		plain, errP := Walk(ch, mk(), at, budget)
		single, errS = WalkRecover(ch, mk, at, nil, pol, budget)
		multi, errM = WalkRecoverMulti(set, mk, at, nil, pol, budget)
		same("perfect", single, errS, multi, errM)
		same("Walk", FaultyResult{Result: plain}, errP, multi, errM)
	})
}
