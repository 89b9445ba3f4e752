// Package onem implements (1,m) indexing [6]: the entire index tree is
// broadcast m times per cycle, once before each of m equal data segments.
//
// Clients tune in, read any bucket to learn the offset to the next index
// segment, traverse the full tree copy there top-down (dozing between
// probes), and doze until the data bucket. Because every index segment
// holds the whole tree, a failed search is detected after at most k index
// probes — the property that makes the tree schemes shine under low data
// availability (paper §5.1).
//
// Larger m shortens the wait for an index segment but lengthens the cycle
// by m tree copies; the optimal m balances the two (computed here by
// minimizing the expected access time over all m).
package onem

import (
	"fmt"
	"math"

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
const Name = "(1,m)"

// Options configures (1,m) indexing.
type Options struct {
	// M is the number of index-tree copies (and data segments) per cycle.
	// Zero selects the access-time-optimal value.
	M int
}

// DefaultOptions selects the optimal m.
func DefaultOptions() Options { return Options{} }

// Validate reports whether the options are usable; Build checks m
// against the record count.
func (o Options) Validate() error {
	if o.M < 0 {
		return fmt.Errorf("onem: M %d must be non-negative (0 selects the optimal m)", o.M)
	}
	return nil
}

// Broadcast is a (1,m)-indexed broadcast cycle.
type Broadcast struct {
	ds     *datagen.Dataset
	ch     *channel.Channel
	tree   *btree.Tree
	layout treeidx.Layout
	m      int

	// meta, parallel to the channel
	nodeOf   []*btree.Node // index buckets; nil for data buckets
	recOf    []int         // data buckets; -1 for index buckets
	segOf    []int         // tree copy / data segment number
	copyBase []int         // bucket index of each tree copy's root
	dataIdx  []int         // record index -> its data bucket index
}

// Build constructs the (1,m) broadcast for a dataset.
func Build(ds *datagen.Dataset, opts Options) (*Broadcast, error) {
	layout, tree, err := treeidx.Compute(ds)
	if err != nil {
		return nil, fmt.Errorf("onem: %w", err)
	}
	m := opts.M
	if m == 0 {
		m = OptimalM(ds.Len(), tree.NumNodes())
	}
	if m < 1 || m > ds.Len() {
		return nil, fmt.Errorf("onem: m %d out of range [1,%d]", m, ds.Len())
	}

	b := &Broadcast{ds: ds, tree: tree, layout: layout, m: m, dataIdx: make([]int, ds.Len())}
	info := &treeidx.CycleInfo{BucketSize: layout.BucketSize}

	// Preorder node list: bucket position of node within a copy is its
	// preorder ID.
	nodes := make([]*btree.Node, 0, tree.NumNodes())
	tree.Walk(func(n *btree.Node) { nodes = append(nodes, n) })

	var buckets []channel.Bucket
	// Segment s covers records [s*per+min(s,extra) ...): split Nr as evenly
	// as possible into m contiguous runs.
	per, extra := ds.Len()/m, ds.Len()%m
	segStartRec := make([]int, m+1)
	for s := 0; s < m; s++ {
		size := per
		if s < extra {
			size++
		}
		segStartRec[s+1] = segStartRec[s] + size
	}

	// First pass: lay out buckets and remember positions.
	var idxBuckets []*treeidx.IndexBucket
	var dataBuckets []*treeidx.DataBucket
	lastKey := treeidx.NoKey
	for s := 0; s < m; s++ {
		b.copyBase = append(b.copyBase, len(buckets))
		for _, n := range nodes {
			ib := &treeidx.IndexBucket{
				Seq:     len(buckets),
				Node:    n,
				LastKey: lastKey,
				Layout:  layout,
				Info:    info,
				DS:      ds,
			}
			idxBuckets = append(idxBuckets, ib)
			buckets = append(buckets, ib)
			b.nodeOf = append(b.nodeOf, n)
			b.recOf = append(b.recOf, -1)
			b.segOf = append(b.segOf, s)
		}
		for r := segStartRec[s]; r < segStartRec[s+1]; r++ {
			db := &treeidx.DataBucket{
				Seq:    len(buckets),
				RecIdx: r,
				Layout: layout,
				Info:   info,
				DS:     ds,
			}
			b.dataIdx[r] = len(buckets)
			dataBuckets = append(dataBuckets, db)
			buckets = append(buckets, db)
			b.nodeOf = append(b.nodeOf, nil)
			b.recOf = append(b.recOf, r)
			b.segOf = append(b.segOf, s)
			lastKey = ds.KeyAt(r)
		}
	}
	info.NumBuckets = len(buckets)

	// Second pass: resolve pointers now that every position is known.
	for _, ib := range idxBuckets {
		s := b.segOf[ib.Seq]
		ib.NextSeg = b.copyBase[(s+1)%m]
		// Control index: within a copy the parent chain sits earlier in
		// the same copy; its next occurrence is in the NEXT copy.
		base := b.copyBase[(s+1)%m]
		for l := 0; l < ib.Node.Level; l++ {
			anc := ancestorAt(ib.Node, l)
			ib.Ctrl = append(ib.Ctrl, base+anc.ID)
		}
		// Local index: children live in the same copy (preorder, ahead of
		// the parent); leaf entries point at data buckets.
		if ib.Node.IsLeaf() {
			for e := 0; e < len(ib.Node.Keys); e++ {
				ib.Local = append(ib.Local, b.dataIdx[ib.Node.DataFrom+e])
			}
		} else {
			for _, c := range ib.Node.Children {
				ib.Local = append(ib.Local, b.copyBase[s]+c.ID)
			}
		}
	}
	for _, db := range dataBuckets {
		db.NextSeg = b.copyBase[(b.segOf[db.Seq]+1)%m]
	}

	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("onem: %w", err)
	}
	b.ch = ch
	return b, nil
}

// ancestorAt returns n's ancestor at the given level (level < n.Level).
func ancestorAt(n *btree.Node, level int) *btree.Node {
	a := n
	for a.Level > level {
		a = a.Parent
	}
	return a
}

// OptimalM returns the m minimizing expected access time for nr records
// and treeNodes index buckets per copy: the balance point between the wait
// for the next index segment and the cycle growth from replication.
func OptimalM(nr, treeNodes int) int {
	best, bestCost := 1, float64(0)
	for m := 1; m <= nr; m++ {
		// In bucket units: initial wait + half the segment period (probe)
		// + half the cycle (broadcast wait).
		cycle := float64(nr + m*treeNodes)
		probe := (float64(nr)/float64(m) + float64(treeNodes)) / 2
		cost := 0.5 + probe + cycle/2
		if m == 1 || cost < bestCost {
			best, bestCost = m, cost
		}
		// Cost is convex in m; stop once it starts rising.
		if m > 1 && cost > bestCost {
			break
		}
	}
	return best
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
		"m":           float64(b.m),
		"fanout":      float64(b.layout.Fanout),
		"levels":      float64(b.layout.Levels),
		"tree_nodes":  float64(b.tree.NumNodes()),
		"bucket_size": float64(b.layout.BucketSize),
	}
}

// Model is (1,m) indexing's closed form (§2.1) in bytes over the
// broadcast's Params, with its replicated and index/data K-channel forms.
func Model(data datagen.Config, multi multichannel.Config, p map[string]float64) (accessBytes, tuningBytes float64) {
	fanout, bucket := int(p["fanout"]), p["bucket_size"]
	tp := analytical.TreeParams{Fanout: fanout, Levels: analytical.LevelsFor(fanout, data.NumRecords),
		Records: data.NumRecords}
	tuningBytes = analytical.OneMTuning(tp) * bucket
	switch {
	case !multi.Enabled():
		return analytical.OneMAccess(tp, int(p["m"])) * bucket, tuningBytes
	case multi.Policy == multichannel.PolicyReplicated:
		return analytical.OneMAccessK(tp, int(p["m"]), multi.Channels) * bucket, tuningBytes
	case multi.Policy == multichannel.PolicyIndexData:
		return analytical.OneMIndexDataAccess(tp, multi.DataChannels()) * bucket, tuningBytes
	default:
		return math.NaN(), math.NaN()
	}
}

// M returns the number of tree copies in use.
func (b *Broadcast) M() int { return b.m }

// Tree exposes the index tree for tests.
func (b *Broadcast) Tree() *btree.Tree { return b.tree }

// Layout exposes the bucket layout for tests.
func (b *Broadcast) Layout() treeidx.Layout { return b.layout }

// NewClient implements access.Broadcast.
func (b *Broadcast) NewClient(key uint64) access.Client {
	return &client{b: b, key: key}
}

type clientPhase uint8

const (
	phaseFirstProbe clientPhase = iota // read any bucket for the next-segment offset
	phaseNavigate                      // descending the tree copy
	phaseDownload                      // reading the data bucket
)

type client struct {
	b     *Broadcast
	key   uint64
	phase clientPhase
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k).
func (c *client) Rewind(key uint64) {
	c.key = key
	c.phase = phaseFirstProbe
}

func (c *client) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	b := c.b
	switch c.phase {
	case phaseFirstProbe:
		c.phase = phaseNavigate
		var next int
		if b.nodeOf[i] != nil {
			next = findIndexBucket(b, i).NextSeg
		} else {
			next = b.copyBase[(b.segOf[i]+1)%b.m]
		}
		nxt := units.Index(next)
		return access.DozeAt(nxt, b.ch.NextOccurrence(nxt, end))

	case phaseNavigate:
		node := b.nodeOf[i]
		if node == nil {
			panic("onem: navigation landed on a data bucket")
		}
		if !node.Covers(b.tree.Keys, c.key) {
			// Only the root can see an out-of-range key; the full tree copy
			// proves absence immediately.
			return access.Done(false)
		}
		ib := findIndexBucket(b, i)
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
		return access.DozeAt(tgt, b.ch.NextOccurrence(tgt, end))

	case phaseDownload:
		if b.recOf[i] < 0 || b.ds.KeyAt(b.recOf[i]) != c.key {
			panic("onem: downloaded the wrong bucket")
		}
		return access.Done(true)
	}
	panic("onem: invalid client phase")
}

// findIndexBucket recovers the IndexBucket instance at channel position i.
func findIndexBucket(b *Broadcast, i units.BucketIndex) *treeidx.IndexBucket {
	return b.ch.Bucket(i).(*treeidx.IndexBucket)
}
