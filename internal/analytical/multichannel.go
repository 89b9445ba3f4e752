package analytical

import "math"

// K-channel extensions of the paper's closed forms. The paper evaluates a
// single broadcast channel; these models extend §2's expressions to the
// multichannel subsystem's allocation policies (DESIGN.md §8).
//
// Replicated allocation broadcasts the full cycle on every channel with
// phases staggered by 1/K of the cycle, so a specific bucket recurs every
// N/K buckets. A doze toward a target at residual distance d therefore
// waits d mod N/K: waits that span many stagger intervals shrink by K,
// while short hops (descending an index tree, chasing a hash chain) and
// the bucket reads themselves are unchanged — which is why tuning time is
// K-invariant and why the serial schemes (flat, the signature family)
// gain nothing. The forms below restate each scheme's access time with
// exactly that split, as deltas on the paper's single-channel expression
// so each reduces to it at K=1.
//
// Index/data allocation dedicates channels to the scheme's index-like
// buckets and stripes the data buckets over the rest, generalizing (1,m)
// to physical channels: the index cycle shrinks to the index bytes alone
// and the data wait to the stripe's half-cycle. All forms keep the
// paper's full-tree idealization and are validated against the
// simulation at the same 20% tolerance as the single-channel curves.

// WrapWait returns the expected wait, in buckets, for a target at a
// uniform residual distance in [0, D) buckets on a schedule that repeats
// the target every P buckets: E[d mod P] for d ~ U(0, D). It reduces to
// D/2 when the distance fits inside one repetition (P >= D) and decays
// toward P/2 as the distance spans many.
func WrapWait(d, p float64) float64 {
	if d <= 0 || p <= 0 {
		return 0
	}
	q := math.Floor(d / p)
	r := d - q*p
	return (q*p*p/2 + r*r/2) / d
}

// OneMAccessK returns (1,m)-indexing access time in Dt units on a
// K-channel replicated allocation. The wait to the next tree copy (the
// client aims at one specific copy) and the broadcast wait both wrap to
// the stagger interval N/K; the in-copy descent, absorbed by the
// single-channel broadcast wait, emerges un-shrunk as about half a tree
// copy.
func OneMAccessK(p TreeParams, m, k int) float64 {
	t := OneMTreeBuckets(p)
	n := OneMCycleBuckets(p, m)
	seg := n / float64(m)
	stagger := n / float64(k)
	return OneMAccess(p, m) - seg/2 - n/2 +
		WrapWait(seg, stagger) + WrapWait(n, stagger) +
		t/2*(1-1/float64(k))
}

// DistAccessK returns distributed-indexing access time in Dt units on a
// K-channel replicated allocation: the broadcast wait wraps to the
// stagger interval, while the within-segment work (index descent and the
// leaf-to-record wait, absorbed by the single-channel N/2) stays fixed at
// about half an index-plus-data segment plus half a data segment.
// segments is the actual per-cycle segment count (n^r under the paper's
// full-tree idealization, passed explicitly because real trees have far
// fewer level-r nodes); pass 0 to use the idealization.
func DistAccessK(p TreeParams, segments, k int) float64 {
	n := DistCycleBuckets(p)
	s := float64(segments)
	if segments <= 0 {
		s = math.Pow(float64(p.Fanout), float64(p.Replicated))
	}
	return DistAccess(p) - n/2 + WrapWait(n, n/float64(k)) +
		(n+float64(p.Records))/(2*s)*(1-1/float64(k))
}

// HashingAccessK returns simple-hashing access time in Dt units on a
// K-channel replicated allocation. The seek phase hits the hash position
// with one doze half the time and misses with two (cycle start, then the
// position) the other half; on staggered channels each doze waits about
// half a stagger interval, giving 3N/(4K) in place of the single-channel
// Ht = N/2. The collision chase wraps its up-to-Nc shift to the stagger
// interval. The half-interval approximation needs K >= 2; K=1 is the
// paper's exact form.
func HashingAccessK(p HashParams, k int) float64 {
	if k <= 1 {
		return HashingAccess(p)
	}
	n := p.CycleBuckets()
	return 0.5 + 3*n/(4*float64(k)) + WrapWait(p.Colliding, n/float64(k)) +
		p.Colliding/p.Records + 1
}

// OneMIndexDataAccess returns (1,m)-indexing access time in Dt units on
// an index/data allocation with dataChannels data stripes. The dedicated
// index channel carries the tree copies back to back, so the receiver
// reaches the nearest copy's root in T/2 and descends within it (~T/2
// more); the target data bucket then waits half its stripe's cycle of
// Nr/dataChannels buckets, after k+1 probe reads.
func OneMIndexDataAccess(p TreeParams, dataChannels int) float64 {
	t := OneMTreeBuckets(p)
	stripe := float64(p.Records) / float64(dataChannels)
	return 0.5 + t + p.Levels + 1 + stripe/2
}

// DistIndexDataAccess returns distributed-indexing access time in Dt
// units on an index/data allocation. The index channel carries the Ci
// index occurrences with an entry point every Ci/segments buckets; the
// descent to the target segment's path crosses about half the index
// cycle, and the data wait is the stripe's half-cycle. segments as in
// DistAccessK.
func DistIndexDataAccess(p TreeParams, segments, dataChannels int) float64 {
	ci := DistIndexBuckets(p)
	s := float64(segments)
	if segments <= 0 {
		s = math.Pow(float64(p.Fanout), float64(p.Replicated))
	}
	stripe := float64(p.Records) / float64(dataChannels)
	return 0.5 + ci/(2*s) + ci/2 + p.Levels + 1 + stripe/2
}
