package multichannel

import (
	"testing"

	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// This file keeps the per-place geometry scan the Set answered queries
// with before its placement table went flat and its occurrence math went
// to one division per shared cycle. It is the oracle FuzzNextFeasible
// holds the production queries to.

// refPlace is one broadcast location of a logical bucket.
type refPlace struct {
	ch    int
	local units.BucketIndex
}

// refPlaces lists where logical bucket target is broadcast, ordered by
// channel index, by scanning every member's logical map.
func refPlaces(s *Set, target units.BucketIndex) []refPlace {
	var out []refPlace
	for j := range s.member {
		n := int(s.member[j].ch.NumBuckets())
		for p := 0; p < n; p++ {
			if s.Logical(j, units.Index(p)) == target {
				out = append(out, refPlace{ch: j, local: units.Index(p)})
			}
		}
	}
	return out
}

// nextOccurrence returns the absolute start of the next broadcast of the
// member's local bucket at or after t, by a ceiling division per query.
func (m *member) nextOccurrence(local units.BucketIndex, t sim.Time) sim.Time {
	start0 := int64(m.ch.StartInCycle(local))
	p := int64(m.ch.CycleLen())
	d := int64(t-m.phase) - start0
	var k int64
	if d > 0 {
		k = (d + p - 1) / p
	} else {
		k = -((-d) / p)
	}
	return m.phase + sim.Time(start0+k*p)
}

// nextBucketAt returns the member's next complete bucket at or after t
// through the channel's own NextBucketAt.
func (m *member) nextBucketAt(t sim.Time) (units.BucketIndex, sim.Time) {
	tl := t - m.phase
	var shift sim.Time
	if tl < 0 {
		p := m.ch.CycleLen().Span()
		tl += p
		shift = -p
	}
	idx, start := m.ch.NextBucketAt(tl)
	return idx, start + m.phase + shift
}

// refNextFeasible is NextFeasible as a scan over every place of target,
// one ceiling division each.
func refNextFeasible(s *Set, target units.BucketIndex, end sim.Time, cur int) (ch int, local units.BucketIndex, start sim.Time) {
	cost := s.cfg.SwitchCost.Span()
	ch = -1
	for _, pl := range refPlaces(s, target) {
		earliest := end
		if pl.ch != cur {
			earliest = end + cost
		}
		t := s.member[pl.ch].nextOccurrence(pl.local, earliest)
		if ch < 0 || t < start || (t == start && pl.ch == cur && ch != cur) {
			ch, local, start = pl.ch, pl.local, t
		}
	}
	return ch, local, start
}

// refFirstBucket is FirstBucket as one NextBucketAt per member.
func refFirstBucket(s *Set, t sim.Time) (ch int, local units.BucketIndex, start sim.Time) {
	ch = -1
	for j := range s.member {
		idx, st := s.member[j].nextBucketAt(t)
		if ch < 0 || st < start {
			ch, local, start = j, idx, st
		}
	}
	return ch, local, start
}

// FuzzNextFeasible holds the production geometry queries to the
// per-place scan: over every policy, K 1..8, a switch cost of zero,
// below the cycle or at least the cycle, any end time and any current
// channel, NextFeasible agrees with refNextFeasible for every logical
// bucket, FirstBucket and NextOnChannel agree with the per-member
// NextBucketAt, and NextCycleStartOn with the next occurrence of local
// bucket 0. It also checks the walk's contiguous-step shortcut:
// when the local bucket after a read on cur carries the next logical
// bucket, NextFeasible picks exactly that bucket, on cur, at the read's
// end.
//
// sizes gives one bucket per byte: size b%48+1, an index bucket when
// bit 7 is set.
func FuzzNextFeasible(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60}, uint8(0), uint8(3), uint8(0), uint16(0), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0x89, 0x89, 30, 30, 30, 0x89, 0x89, 30, 30, 30}, uint8(1), uint8(2), uint8(1), uint16(7), uint32(251), uint8(1), uint8(3), uint8(1))
	f.Add([]byte{5, 6, 7, 8, 9, 10, 11, 12, 0x85}, uint8(2), uint8(4), uint8(2), uint16(3), uint32(100000), uint8(2), uint8(5), uint8(2))
	f.Add([]byte{20, 20, 20, 20, 20}, uint8(0), uint8(4), uint8(1), uint16(1024), uint32(77), uint8(2), uint8(4), uint8(0))
	f.Add([]byte{1, 2}, uint8(0), uint8(7), uint8(2), uint16(0), uint32(3), uint8(6), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, sizes []byte, policy, k, costKind uint8, costArg uint16, end uint32, cur, local, extra uint8) {
		if len(sizes) == 0 || len(sizes) > 64 {
			t.Skip()
		}
		bs := make([]channel.Bucket, len(sizes))
		for i, b := range sizes {
			kind := wire.KindData
			if b&0x80 != 0 {
				kind = wire.KindIndex
			}
			bs[i] = fakeBucket{size: units.Bytes(int(b&0x7f)%48 + 1), kind: kind}
		}
		base := channel.MustBuild(bs)
		cfg := Config{Channels: int(k%8) + 1, Policy: PolicyKind(policy % 3)}
		switch costKind % 3 {
		case 1:
			cfg.SwitchCost = units.Bytes(int(costArg)).Mod(base.CycleLen())
		case 2:
			cfg.SwitchCost = base.CycleLen() + units.Bytes(int(costArg))
		}
		switch cfg.Policy {
		case PolicyIndexData:
			cfg.IndexChannels = int(extra) % cfg.Channels
		case PolicySkewed:
			cfg.Skew = float64(extra%4) / 2
		}
		set, err := Build(base, cfg)
		if err != nil {
			t.Skip() // a policy the cycle cannot carry, e.g. indexdata over all-data
		}
		at := sim.Time(end)
		c := int(cur) % set.K()

		for i := 0; i < int(set.NumLogical()); i++ {
			target := units.Index(i)
			gc, gl, gs := set.NextFeasible(target, at, c)
			wc, wl, ws := refNextFeasible(set, target, at, c)
			if gc != wc || gl != wl || gs != ws {
				t.Fatalf("%+v: NextFeasible(%d, %d, cur %d) = (%d, %d, %d), per-place scan (%d, %d, %d)",
					cfg, target, at, c, gc, gl, gs, wc, wl, ws)
			}
		}
		gc, gl, gs := set.FirstBucket(at)
		wc, wl, ws := refFirstBucket(set, at)
		if gc != wc || gl != wl || gs != ws {
			t.Fatalf("%+v: FirstBucket(%d) = (%d, %d, %d), per-member scan (%d, %d, %d)", cfg, at, gc, gl, gs, wc, wl, ws)
		}
		for j := 0; j < set.K(); j++ {
			gl, gs := set.NextOnChannel(j, at)
			wl, ws := set.member[j].nextBucketAt(at)
			if gl != wl || gs != ws {
				t.Fatalf("%+v: NextOnChannel(%d, %d) = (%d, %d), NextBucketAt (%d, %d)", cfg, j, at, gl, gs, wl, ws)
			}
			// A cycle start is an occurrence of local bucket 0.
			if got, want := set.NextCycleStartOn(j, at), set.member[j].nextOccurrence(0, at); got != want {
				t.Fatalf("%+v: NextCycleStartOn(%d, %d) = %d, want %d", cfg, j, at, got, want)
			}
		}

		// The contiguous step: read local on cur at its next occurrence,
		// then ask for the logical bucket after it.
		m := &set.member[c]
		loc := units.Index(int(local) % int(m.ch.NumBuckets()))
		readEnd := set.EndGiven(c, loc, m.nextOccurrence(loc, at))
		next, lg := set.NextLocal(c, loc)
		if next != loc.Next(m.ch.NumBuckets()) || lg != set.Logical(c, next) {
			t.Fatalf("%+v: NextLocal(%d, %d) = (%d, %d), want local %d carrying %d",
				cfg, c, loc, next, lg, loc.Next(m.ch.NumBuckets()), set.Logical(c, loc.Next(m.ch.NumBuckets())))
		}
		if want := set.Logical(c, loc).Next(set.NumLogical()); lg == want {
			if gc, gl, gs := set.NextFeasible(want, readEnd, c); gc != c || gl != next || gs != readEnd {
				t.Fatalf("%+v: after local %d on channel %d ending at %d, NextFeasible(%d) = (%d, %d, %d), want the contiguous (%d, %d, %d)",
					cfg, loc, c, readEnd, want, gc, gl, gs, c, next, readEnd)
			}
		}
	})
}
