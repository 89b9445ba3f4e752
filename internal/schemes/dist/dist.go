// Package dist implements distributed indexing [6], the B+-tree scheme the
// paper analyzes in §2.1.
//
// The index tree is split at replication depth r: the top r levels are the
// replicated part, everything below is non-replicated. The broadcast cycle
// is a sequence of index segments and data segments, one pair per node at
// level r. A replicated node is broadcast once before the first segment of
// each of its children's subtrees (so it appears as many times as it has
// children); every non-replicated node is broadcast exactly once, in its
// subtree's segment. Each index bucket carries local indices (pointers to
// its children's next occurrences, or to data buckets at the leaf level)
// and control indices (pointers to the next occurrence of each ancestor),
// which let a client that tuned in anywhere steer to the right part of the
// tree without waiting for a full cycle.
package dist

import (
	"fmt"
	"math"
	"sort"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/analytical"
	"github.com/airindex/airindex/internal/btree"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/treeidx"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// Name is the scheme's registry name.
const Name = "distributed"

// Options configures distributed indexing.
type Options struct {
	// R is the number of replicated levels, in [0, k-1]. R < 0 selects the
	// access-time-optimal value, as the paper's simulations do ("we use the
	// optimal value of r as defined in [6]").
	R int
}

// DefaultOptions selects the optimal replication depth.
func DefaultOptions() Options { return Options{R: -1} }

// Broadcast is a distributed-indexing broadcast cycle.
type Broadcast struct {
	ds     *datagen.Dataset
	ch     *channel.Channel
	tree   *btree.Tree
	layout treeidx.Layout
	r      int

	nodeOf    []*btree.Node // per bucket; nil for data buckets
	recOf     []int         // per bucket; -1 for index buckets
	nextSeg   []int         // per bucket: first bucket of the next index segment
	segStarts []int         // bucket index of each index segment's first bucket
	instances map[*btree.Node][]int
	dataIdx   []int // record index -> data bucket index
}

// Build constructs the distributed-indexing broadcast for a dataset.
func Build(ds *datagen.Dataset, opts Options) (*Broadcast, error) {
	layout, tree, err := treeidx.Compute(ds)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	r := opts.R
	if r < 0 {
		r = OptimalR(tree, ds.Len())
	}
	if r > tree.Levels-1 {
		return nil, fmt.Errorf("dist: replication depth %d out of range [0,%d]", r, tree.Levels-1)
	}

	b := &Broadcast{
		ds:        ds,
		tree:      tree,
		layout:    layout,
		r:         r,
		instances: make(map[*btree.Node][]int),
		dataIdx:   make([]int, ds.Len()),
	}
	info := &treeidx.CycleInfo{BucketSize: layout.BucketSize}

	segRoots := tree.ByLevel[r]
	var buckets []channel.Bucket
	var idxBuckets []*treeidx.IndexBucket
	var dataBuckets []*treeidx.DataBucket
	lastKey := treeidx.NoKey

	addIndex := func(n *btree.Node) {
		ib := &treeidx.IndexBucket{
			Seq:     len(buckets),
			Node:    n,
			LastKey: lastKey,
			Layout:  layout,
			Info:    info,
			DS:      ds,
		}
		b.instances[n] = append(b.instances[n], ib.Seq)
		idxBuckets = append(idxBuckets, ib)
		buckets = append(buckets, ib)
		b.nodeOf = append(b.nodeOf, n)
		b.recOf = append(b.recOf, -1)
	}

	for _, v := range segRoots {
		b.segStarts = append(b.segStarts, len(buckets))
		// Replicated prefix: ancestor at level j appears here iff this
		// segment is the first within its path child's subtree, i.e. the
		// segment root is the leftmost level-r node under that child.
		anc := btree.Ancestors(v) // root .. parent(v)
		path := append(anc, v)    // path[j] is the level-j ancestor
		for j := 0; j < r; j++ {
			if path[j+1].DataFrom == v.DataFrom {
				addIndex(path[j])
			}
		}
		// Non-replicated part: the segment subtree in preorder.
		for _, n := range btree.Subtree(v) {
			addIndex(n)
		}
		// The data segment.
		for rec := v.DataFrom; rec < v.DataTo; rec++ {
			db := &treeidx.DataBucket{
				Seq:    len(buckets),
				RecIdx: rec,
				Layout: layout,
				Info:   info,
				DS:     ds,
			}
			b.dataIdx[rec] = len(buckets)
			dataBuckets = append(dataBuckets, db)
			buckets = append(buckets, db)
			b.nodeOf = append(b.nodeOf, nil)
			b.recOf = append(b.recOf, rec)
			lastKey = ds.KeyAt(rec)
		}
	}
	info.NumBuckets = len(buckets)

	// Resolve per-bucket next-index-segment pointers.
	b.nextSeg = make([]int, len(buckets))
	for i := range buckets {
		b.nextSeg[i] = b.segAfter(i)
	}
	// Resolve per-instance control and local pointers.
	for _, ib := range idxBuckets {
		n := ib.Node
		ib.NextSeg = b.nextSeg[ib.Seq]
		for l := 0; l < n.Level; l++ {
			ib.Ctrl = append(ib.Ctrl, b.nextInstance(btree.AncestorAt(n, l), ib.Seq))
		}
		if n.IsLeaf() {
			for e := 0; e < len(n.Keys); e++ {
				ib.Local = append(ib.Local, b.dataIdx[n.DataFrom+e])
			}
		} else {
			for _, c := range n.Children {
				ib.Local = append(ib.Local, b.nextInstance(c, ib.Seq))
			}
		}
	}
	for _, db := range dataBuckets {
		db.NextSeg = b.nextSeg[db.Seq]
	}

	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	b.ch = ch
	return b, nil
}

// segAfter returns the first bucket of the first index segment that starts
// strictly after bucket i (wrapping to segment 0).
func (b *Broadcast) segAfter(i int) int {
	j := sort.SearchInts(b.segStarts, i+1)
	if j == len(b.segStarts) {
		return b.segStarts[0]
	}
	return b.segStarts[j]
}

// nextInstance returns the bucket index of node n's first occurrence
// strictly after bucket pos, wrapping to its first occurrence.
func (b *Broadcast) nextInstance(n *btree.Node, pos int) int {
	inst := b.instances[n]
	j := sort.SearchInts(inst, pos+1)
	if j == len(inst) {
		return inst[0]
	}
	return inst[j]
}

// OptimalR returns the replication depth minimizing the expected access
// time, evaluated from the tree's exact per-level node counts.
func OptimalR(tree *btree.Tree, nr int) int {
	best, bestCost := 0, 0.0
	for r := 0; r <= tree.Levels-1; r++ {
		cost := expectedAccessBuckets(tree, nr, r)
		if r == 0 || cost < bestCost {
			best, bestCost = r, cost
		}
	}
	return best
}

// expectedAccessBuckets estimates access time in bucket units for
// replication depth r: initial wait, average probe to the next index
// segment, and half the cycle.
func expectedAccessBuckets(tree *btree.Tree, nr, r int) float64 {
	idx := 0
	for l := 1; l <= r; l++ {
		idx += len(tree.ByLevel[l]) // replicated occurrences
	}
	for l := r; l < tree.Levels; l++ {
		idx += len(tree.ByLevel[l]) // non-replicated, once each
	}
	segs := len(tree.ByLevel[r])
	cycle := float64(idx + nr)
	probe := (float64(idx) + float64(nr)) / float64(segs) / 2
	return 0.5 + probe + cycle/2
}

// Name implements access.Broadcast.
func (b *Broadcast) Name() string { return Name }

// Channel implements access.Broadcast.
func (b *Broadcast) Channel() *channel.Channel { return b.ch }

// Contains implements access.Broadcast.
func (b *Broadcast) Contains(key uint64) bool {
	_, ok := b.ds.Find(key)
	return ok
}

// Params implements access.Broadcast.
func (b *Broadcast) Params() map[string]float64 {
	return map[string]float64{
		"records":     float64(b.ds.Len()),
		"cycle_bytes": float64(b.ch.CycleLen()),
		"r":           float64(b.r),
		"fanout":      float64(b.layout.Fanout),
		"levels":      float64(b.layout.Levels),
		"segments":    float64(len(b.segStarts)),
		"bucket_size": float64(b.layout.BucketSize),
	}
}

// Model is distributed indexing's closed form (§2.1) in bytes over the
// broadcast's Params, with its replicated and index/data K-channel forms.
func Model(data datagen.Config, multi multichannel.Config, p map[string]float64) (accessBytes, tuningBytes float64) {
	fanout, bucket := int(p["fanout"]), p["bucket_size"]
	tp := analytical.TreeParams{Fanout: fanout, Levels: analytical.LevelsFor(fanout, data.NumRecords),
		Replicated: int(p["r"]), Records: data.NumRecords}
	tuningBytes = analytical.DistTuning(tp) * bucket
	switch {
	case !multi.Enabled():
		return analytical.DistAccess(tp) * bucket, tuningBytes
	case multi.Policy == multichannel.PolicyReplicated:
		return analytical.DistAccessK(tp, int(p["segments"]), multi.Channels) * bucket, tuningBytes
	case multi.Policy == multichannel.PolicyIndexData:
		return analytical.DistIndexDataAccess(tp, int(p["segments"]), multi.DataChannels()) * bucket, tuningBytes
	default:
		return math.NaN(), math.NaN()
	}
}

// R returns the replication depth in use.
func (b *Broadcast) R() int { return b.r }

// Tree exposes the index tree for tests.
func (b *Broadcast) Tree() *btree.Tree { return b.tree }

// Layout exposes the bucket layout for tests.
func (b *Broadcast) Layout() treeidx.Layout { return b.layout }

// Instances exposes a node's occurrence positions for tests.
func (b *Broadcast) Instances(n *btree.Node) []int { return b.instances[n] }

// SegmentStarts exposes the index segment start positions for tests.
func (b *Broadcast) SegmentStarts() []int { return b.segStarts }

// NewClient implements access.Broadcast.
func (b *Broadcast) NewClient(key uint64) access.Client {
	return &client{b: b, key: key}
}

type clientPhase uint8

const (
	phaseFirstProbe clientPhase = iota
	phaseNavigate
	phaseDownload
)

type client struct {
	b     *Broadcast
	key   uint64
	phase clientPhase
	// descended is set once the client has been routed downward by a
	// parent's local index. A routed node that does not cover the key
	// proves the key absent (the parent's separators made this node the
	// only possible home), whereas a segment-start or control-index target
	// that does not cover it merely means "steer elsewhere".
	descended bool
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k).
func (c *client) Rewind(key uint64) {
	c.key = key
	c.phase = phaseFirstProbe
	c.descended = false
}

func (c *client) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	b := c.b
	switch c.phase {
	case phaseFirstProbe:
		c.phase = phaseNavigate
		nxt := units.Index(b.nextSeg[i])
		return access.DozeAt(nxt, b.ch.NextOccurrence(nxt, end))

	case phaseNavigate:
		node := b.nodeOf[i]
		if node == nil {
			panic("dist: navigation landed on a data bucket")
		}
		ib := b.ch.Bucket(i).(*treeidx.IndexBucket)
		if !node.Covers(b.tree.Keys, c.key) {
			if c.descended {
				// The parent's separators routed the key here; nowhere
				// else could hold it.
				return access.Done(false)
			}
			// Steer up one level via the control index (an on-air bucket
			// carries only its own separators, so a client can decide "not
			// under me" but not which ancestor covers the key — it climbs
			// until one does). The root covers every in-range key; a key
			// outside the root's range is not broadcast.
			if node.Parent == nil {
				return access.Done(false)
			}
			up := units.Index(ib.Ctrl[node.Level-1])
			return access.DozeAt(up, b.ch.NextOccurrence(up, end))
		}
		if node.IsLeaf() {
			e := node.EntryFor(c.key)
			if e < 0 {
				return access.Done(false)
			}
			c.phase = phaseDownload
			tgt := units.Index(ib.Local[e])
			return access.DozeAt(tgt, b.ch.NextOccurrence(tgt, end))
		}
		tgt := units.Index(ib.Local[node.ChildFor(c.key)])
		c.descended = true
		return access.DozeAt(tgt, b.ch.NextOccurrence(tgt, end))

	case phaseDownload:
		if b.recOf[i] < 0 || b.ds.KeyAt(b.recOf[i]) != c.key {
			panic("dist: downloaded the wrong bucket")
		}
		return access.Done(true)
	}
	panic("dist: invalid client phase")
}
