package multichannel

import (
	"fmt"
	"math"

	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// member is one physical channel: a cyclic bucket sequence (possibly the
// shared base channel itself) broadcast with a phase shift. Local bucket p
// starts at absolute times phase + start(p) + k·cycle for every integer k
// — the channel has been transmitting its pattern since before time zero,
// so occurrence queries extend the pattern in both directions.
type member struct {
	ch    *channel.Channel
	phase sim.Time // 0 <= phase < cycle
	// logical maps local bucket positions to logical cycle positions;
	// nil means the identity (the member carries the full base cycle).
	logical []units.BucketIndex
}

// group is a run of consecutive members that broadcast one physical
// cycle and differ only in phase, so one floor division by the cycle
// serves every member of the group.
type group struct {
	first, end int // member indices [first, end)
	// costQ and costR are the floor quotient and remainder of the switch
	// cost by the cycle: they move a division's result from end to
	// end + cost without a second division.
	costQ, costR int64
}

// place is where one group broadcasts a logical bucket: every member of
// the group carries it at the same local position.
type place struct {
	grp   int32
	local int32
}

// Set is an immutable K-channel allocation of one logical broadcast
// cycle. All geometry queries are deterministic; ties between channels
// resolve to the current channel first, then the lowest channel index.
type Set struct {
	cfg    Config
	base   *channel.Channel
	member []member
	group  []group
	// place[placeAt[i]:placeAt[i+1]] lists where logical bucket i is
	// broadcast, ordered by group and so by channel index. Both are nil
	// when every member carries the base cycle unchanged (replicated):
	// there, logical bucket i is local i on the one group.
	placeAt []int32
	place   []place
}

// Build allocates the base cycle across cfg.Channels physical channels
// according to cfg.Policy. The base channel is never copied or mutated —
// replicated members share it.
func Build(base *channel.Channel, cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("multichannel: config is disabled (channels 0); the single-channel path needs no Set")
	}
	s := &Set{cfg: cfg, base: base}
	var err error
	switch cfg.Policy {
	case PolicyReplicated:
		s.addGroup(base, nil, cfg.Channels)
	case PolicyIndexData:
		err = s.buildIndexData()
	case PolicySkewed:
		err = s.buildSkewed()
	default:
		err = fmt.Errorf("multichannel: unknown policy kind %d", cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	s.indexPlaces()
	return s, nil
}

// addGroup appends k members that broadcast ch carrying the logical
// subsequence seq (nil: the whole base cycle), phase-staggered by
// cycle/k so any specific bucket's occurrences interleave evenly.
func (s *Set) addGroup(ch *channel.Channel, seq []units.BucketIndex, k int) {
	span := int64(ch.CycleLen())
	first := len(s.member)
	for j := 0; j < k; j++ {
		s.member = append(s.member, member{
			ch:      ch,
			phase:   sim.Time(span * int64(j) / int64(k)),
			logical: seq,
		})
	}
	cq, cr := floorDivMod(int64(s.cfg.SwitchCost.Span()), span)
	s.group = append(s.group, group{first: first, end: len(s.member), costQ: cq, costR: cr})
}

// indexPlaces builds the flat placement table from the groups' logical
// maps, in group order so each bucket's places stay ordered by channel.
// A set whose only group carries the base cycle unchanged needs none.
func (s *Set) indexPlaces() {
	if len(s.group) == 1 && s.member[0].logical == nil {
		return
	}
	n := int(s.base.NumBuckets())
	s.placeAt = make([]int32, n+1)
	for _, g := range s.group {
		for _, li := range s.member[g.first].logical {
			s.placeAt[li+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.placeAt[i+1] += s.placeAt[i]
	}
	s.place = make([]place, s.placeAt[n])
	fill := append([]int32(nil), s.placeAt[:n]...)
	for gi, g := range s.group {
		for p, li := range s.member[g.first].logical {
			s.place[fill[li]] = place{grp: int32(gi), local: int32(p)}
			fill[li]++
		}
	}
}

// splitKinds partitions the base cycle's logical positions into the
// non-data (index-like: index, signature, hash) and data subsequences,
// both in logical order.
func (s *Set) splitKinds() (idxSeq, dataSeq []units.BucketIndex) {
	n := int(s.base.NumBuckets())
	for i := 0; i < n; i++ {
		li := units.Index(i)
		if s.base.Bucket(li).Kind() == wire.KindData {
			dataSeq = append(dataSeq, li)
		} else {
			idxSeq = append(idxSeq, li)
		}
	}
	return idxSeq, dataSeq
}

// subChannel builds a physical cycle from a logical subsequence.
func (s *Set) subChannel(seq []units.BucketIndex) (*channel.Channel, error) {
	buckets := make([]channel.Bucket, len(seq))
	for p, li := range seq {
		buckets[p] = s.base.Bucket(li)
	}
	return channel.Build(buckets)
}

// buildIndexData dedicates the first indexChannels members to the index
// buckets (the shared index cycle, phase-staggered among them) and
// partitions the data buckets contiguously, balanced by bytes, across the
// remaining members.
func (s *Set) buildIndexData() error {
	idxSeq, dataSeq := s.splitKinds()
	ic := s.cfg.indexChannels()
	dn := s.cfg.Channels - ic
	if len(idxSeq) == 0 {
		return fmt.Errorf("multichannel: indexdata needs index buckets, but scheme cycle is all data (use replicated or skewed)")
	}
	if len(dataSeq) == 0 {
		return fmt.Errorf("multichannel: indexdata needs data buckets, but scheme cycle has none (use replicated)")
	}
	if len(dataSeq) < dn {
		return fmt.Errorf("multichannel: %d data channels exceed %d data buckets", dn, len(dataSeq))
	}
	idxCh, err := s.subChannel(idxSeq)
	if err != nil {
		return err
	}
	s.addGroup(idxCh, idxSeq, ic)
	weights := make([]float64, len(dataSeq))
	for p, li := range dataSeq {
		weights[p] = float64(s.base.SizeOf(li))
	}
	groups := splitContiguous(dataSeq, weights, dn)
	for _, g := range groups {
		ch, err := s.subChannel(g)
		if err != nil {
			return err
		}
		s.addGroup(ch, g, 1)
	}
	return nil
}

// buildSkewed partitions the data buckets contiguously across all K
// members by Zipf probability mass over popularity rank (data-bucket
// cycle position, rank 0 hottest — the workload's convention), so the hot
// channel gets few buckets and a short, frequently repeating cycle. Index
// buckets, if the scheme has any, are replicated on every member so the
// protocol's navigation works from any channel.
func (s *Set) buildSkewed() error {
	idxSeq, dataSeq := s.splitKinds()
	k := s.cfg.Channels
	if len(dataSeq) < k {
		return fmt.Errorf("multichannel: %d channels exceed %d data buckets for the skewed partition", k, len(dataSeq))
	}
	weights := make([]float64, len(dataSeq))
	for r := range weights {
		weights[r] = zipfWeight(r, s.cfg.Skew)
	}
	groups := splitContiguous(dataSeq, weights, k)
	for _, g := range groups {
		seq := mergeLogical(idxSeq, g)
		ch, err := s.subChannel(seq)
		if err != nil {
			return err
		}
		s.addGroup(ch, seq, 1)
	}
	return nil
}

// zipfWeight is the unnormalized Zipf(s) mass of rank r (0-based); s=0
// degenerates to equal mass.
func zipfWeight(r int, skew float64) float64 {
	if skew == 0 {
		return 1
	}
	return math.Pow(float64(r+1), -skew)
}

// splitContiguous cuts seq into parts contiguous groups whose weights are
// as balanced as the greedy quota walk allows. Every group is non-empty:
// the walk always takes at least one element and leaves enough for the
// remaining groups. Deterministic in its inputs.
func splitContiguous(seq []units.BucketIndex, weights []float64, parts int) [][]units.BucketIndex {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	groups := make([][]units.BucketIndex, 0, parts)
	start := 0
	cum := 0.0
	for g := 0; g < parts; g++ {
		quota := total * float64(g+1) / float64(parts)
		end := start + 1 // at least one element per group
		cum += weights[start]
		for end < len(seq)-(parts-g-1) && cum+weights[end]/2 < quota {
			cum += weights[end]
			end++
		}
		if g == parts-1 {
			end = len(seq)
		}
		groups = append(groups, seq[start:end])
		start = end
	}
	return groups
}

// mergeLogical interleaves two logical-order subsequences back into one
// logical-order sequence.
func mergeLogical(a, b []units.BucketIndex) []units.BucketIndex {
	out := make([]units.BucketIndex, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// --- geometry queries ------------------------------------------------

// K returns the number of physical channels.
func (s *Set) K() int { return len(s.member) }

// SwitchCost returns the receiver's channel-switch cost in bytes.
func (s *Set) SwitchCost() units.ByteCount { return s.cfg.SwitchCost }

// Config returns the allocation configuration.
func (s *Set) Config() Config { return s.cfg }

// Base returns the logical broadcast cycle the allocation carries.
func (s *Set) Base() *channel.Channel { return s.base }

// NumLogical returns the number of logical buckets per cycle.
func (s *Set) NumLogical() units.BucketCount { return s.base.NumBuckets() }

// ChannelCycle returns channel j's physical cycle length in bytes.
func (s *Set) ChannelCycle(j int) units.ByteCount { return s.member[j].ch.CycleLen() }

// Logical maps a channel-local bucket position to its logical cycle
// position.
//
//airlint:hotpath
func (s *Set) Logical(ch int, local units.BucketIndex) units.BucketIndex {
	m := &s.member[ch]
	if m.logical == nil {
		return local
	}
	return m.logical[local]
}

// SizeOfLocal returns the byte size of the bucket at a channel-local
// position.
//
//airlint:hotpath
func (s *Set) SizeOfLocal(ch int, local units.BucketIndex) units.ByteCount {
	return s.member[ch].ch.SizeOf(local)
}

// EndGiven returns the finish time of the local bucket on channel ch when
// its broadcast starts at the given time.
//
//airlint:hotpath
func (s *Set) EndGiven(ch int, local units.BucketIndex, start sim.Time) sim.Time {
	return s.member[ch].ch.EndGiven(local, start)
}

// NextLocal returns the local position that follows local on channel ch
// and the logical bucket it carries. That bucket starts where local ends.
//
//airlint:hotpath
func (s *Set) NextLocal(ch int, local units.BucketIndex) (next, logical units.BucketIndex) {
	m := &s.member[ch]
	next = local.Next(m.ch.NumBuckets())
	if m.logical == nil {
		return next, next
	}
	return next, m.logical[next]
}

// FirstBucket returns the earliest complete bucket across all channels
// beginning at or after t — the multichannel initial wait. The initial
// tune is free of switch cost (the receiver is not locked to any channel
// yet); ties go to the lowest channel index.
//
//airlint:hotpath
func (s *Set) FirstBucket(t sim.Time) (ch int, local units.BucketIndex, start sim.Time) {
	ch = -1
	for _, g := range s.group {
		q, r := floorDivMod(int64(t), int64(s.member[g.first].ch.CycleLen()))
		for j := g.first; j < g.end; j++ {
			idx, st := s.member[j].bucketFrom(q, r)
			if ch < 0 || st < start {
				ch, local, start = j, idx, st
			}
		}
	}
	return ch, local, start
}

// NextOnChannel returns the next complete bucket on channel ch beginning
// at or after t.
//
//airlint:hotpath
func (s *Set) NextOnChannel(ch int, t sim.Time) (units.BucketIndex, sim.Time) {
	m := &s.member[ch]
	q, r := floorDivMod(int64(t), int64(m.ch.CycleLen()))
	return m.bucketFrom(q, r)
}

// NextCycleStartOn returns channel ch's next cycle start at or after t.
//
//airlint:hotpath
func (s *Set) NextCycleStartOn(ch int, t sim.Time) sim.Time {
	return s.member[ch].nextCycleStart(t)
}

// NextFeasible returns the earliest feasible broadcast of the logical
// bucket target for a receiver on channel cur that finished reading at
// time end: occurrences on cur qualify from end, occurrences on any other
// channel from end plus the switch cost (the retune happens while
// dozing). Ties prefer staying on cur, then the lowest channel index.
//
//airlint:hotpath
func (s *Set) NextFeasible(target units.BucketIndex, end sim.Time, cur int) (ch int, local units.BucketIndex, start sim.Time) {
	b := feasible{ch: -1, end: int64(end), cur: cur}
	if s.place == nil {
		s.seek(&b, &s.group[0], target)
	} else {
		for _, pl := range s.place[s.placeAt[target]:s.placeAt[target+1]] {
			s.seek(&b, &s.group[pl.grp], units.BucketIndex(pl.local))
		}
	}
	return b.ch, b.local, b.start
}

// feasible is NextFeasible's query and its best occurrence so far.
type feasible struct {
	end   int64
	cur   int
	ch    int
	local units.BucketIndex
	start sim.Time
}

// seek folds group g's occurrences of its local bucket into b. With s0
// the bucket's in-cycle start, P the cycle and q, r the floor quotient
// and remainder of (from - s0) by P, a member of phase φ (0 <= φ < P)
// next broadcasts the bucket at φ + s0 + (q + [r > φ])·P, the smallest
// such time at or after from. The current channel's bound is from = end,
// every other channel's is end + cost, and the group's precomputed
// quotient and remainder of the cost carry one to the other, so the
// whole group costs one division.
//
//airlint:hotpath
func (s *Set) seek(b *feasible, g *group, local units.BucketIndex) {
	m0 := &s.member[g.first]
	s0, p := int64(m0.ch.StartInCycle(local)), int64(m0.ch.CycleLen())
	qe, re := floorDivMod(b.end-s0, p)
	qc, rc := qe+g.costQ, re+g.costR
	if rc >= p {
		qc++
		rc -= p
	}
	for j := g.first; j < g.end; j++ {
		q, r := qc, rc
		if j == b.cur {
			q, r = qe, re
		}
		ph := int64(s.member[j].phase)
		if r > ph {
			q++
		}
		t := sim.Time(ph + s0 + q*p)
		if b.ch < 0 || t < b.start || (t == b.start && j == b.cur && b.ch != b.cur) {
			b.ch, b.local, b.start = j, local, t
		}
	}
}

// --- member arithmetic -----------------------------------------------
//
// All phase-shifted occurrence math runs on raw int64 byte-clock values
// and re-enters sim.Time only at the boundary: the cyclic pattern extends
// to all integers k, and phase < cycle keeps every correction within one
// period.

// floorDivMod returns the floor quotient and the remainder in [0, p) of
// x by p > 0.
//
//airlint:hotpath
func floorDivMod(x, p int64) (q, r int64) {
	q = x / p
	r = x - q*p
	if r < 0 {
		q--
		r += p
	}
	return q, r
}

// bucketFrom returns the member's next complete bucket at or after the
// time t = q·cycle + r, 0 <= r < cycle.
//
//airlint:hotpath
func (m *member) bucketFrom(q, r int64) (units.BucketIndex, sim.Time) {
	ph, p := int64(m.phase), int64(m.ch.CycleLen())
	base, off := q*p+ph, r-ph
	if off < 0 {
		off += p
		base -= p
	}
	idx, so := m.ch.NextBucketFrom(units.Offset64(off))
	return idx, sim.Time(base + int64(so))
}

// nextCycleStart returns the member's next cycle start at or after t.
//
//airlint:hotpath
func (m *member) nextCycleStart(t sim.Time) sim.Time {
	p := int64(m.ch.CycleLen())
	q, r := floorDivMod(int64(t-m.phase), p)
	if r > 0 {
		q++
	}
	return m.phase + sim.Time(q*p)
}
