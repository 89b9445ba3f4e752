// Package hybrid implements an index-tree + signature hybrid access method
// in the spirit of the paper's references [3,4] (Hu, Lee & Lee): a B+
// index tree over *groups* of records steers the client close to its
// target with tree-like tuning cost, and record signatures inside each
// group filter the final candidates without reading full records.
//
// The broadcast cycle is (1,m)-shaped: m copies of the group-level index
// tree, each followed by a data segment whose groups are laid out as
// [sig, data] pairs. Compared to the paper's pure schemes the hybrid
// carries far fewer index buckets than distributed/(1,m) (one leaf entry
// per group instead of per record) and far fewer signature reads than
// simple signature indexing (only the target group's).
package hybrid

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/btree"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Name is the scheme's registry name.
const Name = "hybrid"

// Options configures the hybrid broadcast.
type Options struct {
	// GroupSize is the number of records per signature group.
	GroupSize int
	// M is the number of index-tree copies per cycle (0 = optimal).
	M int
	// SigBytes and BitsPerField configure the record signatures.
	SigBytes     int
	BitsPerField int
}

// DefaultOptions returns 16-record groups with 16-byte signatures and the
// access-optimal tree replication.
func DefaultOptions() Options {
	return Options{GroupSize: 16, SigBytes: 16, BitsPerField: 8}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	switch {
	case o.GroupSize < 1:
		return fmt.Errorf("hybrid: GroupSize %d must be positive", o.GroupSize)
	case o.SigBytes < 1:
		return fmt.Errorf("hybrid: SigBytes %d must be positive", o.SigBytes)
	case o.BitsPerField < 1 || o.BitsPerField > o.SigBytes*8:
		return fmt.Errorf("hybrid: BitsPerField %d outside [1,%d]", o.BitsPerField, o.SigBytes*8)
	}
	return nil
}

// indexBucket is one tree node occurrence: header, next-index-segment
// offset, and up to fanout (key, offset) entries, padded to a fixed size
// so the tree geometry is honest on the wire.
type indexBucket struct {
	seq     int
	node    *btree.Node
	nextSeg int
	local   []int
	b       *Broadcast
}

func (ib *indexBucket) Size() units.ByteCount { return ib.b.idxBucketSize }
func (ib *indexBucket) Kind() wire.Kind       { return wire.KindIndex }

func (ib *indexBucket) Encode() []byte {
	w := wire.NewWriter(ib.Size())
	w.Header(wire.Header{Kind: wire.KindIndex, Seq: uint32(ib.seq)})
	w.Offset(ib.b.deltaBytes(ib.seq, ib.nextSeg))
	w.U16(uint16(len(ib.local)))
	keySize := ib.b.ds.Config().KeySize
	for j := 0; j < ib.b.fanout; j++ {
		if j < len(ib.local) {
			w.Raw(datagen.EncodeKeyWidth(ib.node.Keys[j], keySize))
			w.Offset(ib.b.deltaBytes(ib.seq, ib.local[j]))
		} else {
			w.Pad(units.Bytes(keySize) + wire.OffsetSize)
		}
	}
	w.Pad(ib.Size() - w.Len())
	return w.Bytes()
}

// sigBucket carries one record signature.
type sigBucket struct {
	seq int
	sig signature.Sig
}

func (sb *sigBucket) Size() units.ByteCount { return wire.HeaderSize + units.Bytes(len(sb.sig)) }
func (sb *sigBucket) Kind() wire.Kind       { return wire.KindSignature }

func (sb *sigBucket) Encode() []byte {
	w := wire.NewWriter(sb.Size())
	w.Header(wire.Header{Kind: wire.KindSignature, Seq: uint32(sb.seq)})
	w.Raw(sb.sig)
	return w.Bytes()
}

// dataBucket carries one record plus the next-index-segment offset.
type dataBucket struct {
	seq     int
	recIdx  int
	nextSeg int
	b       *Broadcast
}

func (db *dataBucket) Size() units.ByteCount {
	return wire.HeaderSize + wire.OffsetSize + units.Bytes(db.b.ds.Config().RecordSize)
}

func (db *dataBucket) Kind() wire.Kind { return wire.KindData }

func (db *dataBucket) Encode() []byte {
	w := wire.NewWriter(db.Size())
	w.Header(wire.Header{Kind: wire.KindData, Seq: uint32(db.seq)})
	w.Offset(db.b.deltaBytes(db.seq, db.nextSeg))
	rec := db.b.ds.Record(db.recIdx)
	w.Raw(db.b.ds.EncodeKey(rec.Key))
	for _, a := range rec.Attrs {
		w.Raw([]byte(a))
	}
	return w.Bytes()
}

// Broadcast is the hybrid cycle.
type Broadcast struct {
	ds   *datagen.Dataset
	ch   *channel.Channel
	opts Options
	tree *btree.Tree
	m    int

	fanout        int
	idxBucketSize units.ByteCount
	groups        int
	groupFrom     []int // first record index of each group
	sigs          []signature.Sig

	// per-bucket metadata
	nodeOf   []*btree.Node
	recOf    []int // record index for sig and data buckets; -1 otherwise
	isSig    []bool
	nextSeg  []int
	copyBase []int
	groupIdx []int // record index -> group

	// byte-position bookkeeping for wire offsets
	starts []units.ByteOffset
	cycle  units.ByteCount
}

// deltaBytes is the on-air distance from the end of bucket `from` to the
// start of bucket `to` (buckets here are not uniform, so positions are
// tracked explicitly).
func (b *Broadcast) deltaBytes(from, to int) int64 {
	endOfFrom := b.starts[from].Advance(b.sizeOf(from))
	d := b.starts[to] - endOfFrom
	if d < 0 {
		d = d.Advance(b.cycle)
	}
	return int64(d)
}

func (b *Broadcast) sizeOf(i int) units.ByteCount { return b.ch.Bucket(units.Index(i)).Size() }

// Build constructs the hybrid broadcast for a dataset.
func Build(ds *datagen.Dataset, opts Options) (*Broadcast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg := ds.Config()
	b := &Broadcast{ds: ds, opts: opts, groupIdx: make([]int, ds.Len())}

	// Group the records and build the group-level tree.
	var groupMax []uint64
	for from := 0; from < ds.Len(); from += opts.GroupSize {
		to := from + opts.GroupSize
		if to > ds.Len() {
			to = ds.Len()
		}
		g := len(groupMax)
		b.groupFrom = append(b.groupFrom, from)
		groupMax = append(groupMax, ds.KeyAt(to-1))
		for r := from; r < to; r++ {
			b.groupIdx[r] = g
		}
	}
	b.groups = len(groupMax)

	// Index bucket geometry: same fixed bucket size as the pure tree
	// schemes so comparisons are apples-to-apples.
	bucketSize := wire.HeaderSize + wire.OffsetSize + units.Bytes(cfg.RecordSize)
	b.idxBucketSize = bucketSize
	b.fanout = (bucketSize - wire.HeaderSize - wire.OffsetSize - 2).Div(units.Bytes(cfg.KeySize) + wire.OffsetSize)
	if b.fanout < 2 {
		return nil, fmt.Errorf("hybrid: key size %d too large for record size %d", cfg.KeySize, cfg.RecordSize)
	}
	tree, err := btree.Build(groupMax, b.fanout)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	b.tree = tree

	m := opts.M
	if m == 0 {
		m = optimalM(b.groups*(opts.GroupSize+1), tree.NumNodes())
	}
	if m < 1 || m > b.groups {
		m = 1
	}
	b.m = m

	// Record signatures.
	b.sigs = make([]signature.Sig, ds.Len())
	var kbuf []byte
	for i := range b.sigs {
		b.sigs[i] = make(signature.Sig, opts.SigBytes)
		kbuf = b.sigs[i].AddRecord(ds.Record(i), cfg.KeySize, opts.BitsPerField, kbuf)
	}

	// Lay out m (tree copy + group run) segments.
	nodes := make([]*btree.Node, 0, tree.NumNodes())
	tree.Walk(func(n *btree.Node) { nodes = append(nodes, n) })
	per, extra := b.groups/m, b.groups%m
	segFromGroup := make([]int, m+1)
	for s := 0; s < m; s++ {
		size := per
		if s < extra {
			size++
		}
		segFromGroup[s+1] = segFromGroup[s] + size
	}

	var buckets []channel.Bucket
	var idxBuckets []*indexBucket
	var dataBuckets []*dataBucket
	groupStartBucket := make([]int, b.groups)
	segOf := make([]int, 0)
	for s := 0; s < m; s++ {
		b.copyBase = append(b.copyBase, len(buckets))
		for _, n := range nodes {
			ib := &indexBucket{seq: len(buckets), node: n, b: b}
			idxBuckets = append(idxBuckets, ib)
			buckets = append(buckets, ib)
			b.nodeOf = append(b.nodeOf, n)
			b.recOf = append(b.recOf, -1)
			b.isSig = append(b.isSig, false)
			segOf = append(segOf, s)
		}
		for g := segFromGroup[s]; g < segFromGroup[s+1]; g++ {
			from := b.groupFrom[g]
			to := from + opts.GroupSize
			if to > ds.Len() {
				to = ds.Len()
			}
			groupStartBucket[g] = len(buckets)
			for r := from; r < to; r++ {
				buckets = append(buckets, &sigBucket{seq: len(buckets), sig: b.sigs[r]})
				b.nodeOf = append(b.nodeOf, nil)
				b.recOf = append(b.recOf, r)
				b.isSig = append(b.isSig, true)
				segOf = append(segOf, s)

				db := &dataBucket{seq: len(buckets), recIdx: r, b: b}
				dataBuckets = append(dataBuckets, db)
				buckets = append(buckets, db)
				b.nodeOf = append(b.nodeOf, nil)
				b.recOf = append(b.recOf, r)
				b.isSig = append(b.isSig, false)
				segOf = append(segOf, s)
			}
		}
	}

	// Byte positions, then pointers.
	b.starts = make([]units.ByteOffset, len(buckets))
	var off units.ByteOffset
	var total units.ByteCount
	for i, bk := range buckets {
		b.starts[i] = off
		off = off.Advance(bk.Size())
		total += bk.Size()
	}
	b.cycle = total
	b.nextSeg = make([]int, len(buckets))
	for i := range buckets {
		b.nextSeg[i] = b.copyBase[(segOf[i]+1)%m]
	}
	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	b.ch = ch
	for _, ib := range idxBuckets {
		ib.nextSeg = b.nextSeg[ib.seq]
		s := segOf[ib.seq]
		if ib.node.IsLeaf() {
			for e := 0; e < len(ib.node.Keys); e++ {
				ib.local = append(ib.local, groupStartBucket[ib.node.DataFrom+e])
			}
		} else {
			for _, c := range ib.node.Children {
				ib.local = append(ib.local, b.copyBase[s]+c.ID)
			}
		}
	}
	for _, db := range dataBuckets {
		db.nextSeg = b.nextSeg[db.seq]
	}
	return b, nil
}

// optimalM balances segment-probe wait against cycle growth, as in (1,m)
// indexing, with the group run length standing in for the data segment.
func optimalM(dataBuckets, treeNodes int) int {
	best, bestCost := 1, 0.0
	for m := 1; m <= dataBuckets; m++ {
		cost := 0.5 + (float64(dataBuckets)/float64(m)+float64(treeNodes))/2 +
			float64(dataBuckets+m*treeNodes)/2
		if m == 1 || cost < bestCost {
			best, bestCost = m, cost
		}
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
		"groups":      float64(b.groups),
		"group_size":  float64(b.opts.GroupSize),
		"fanout":      float64(b.fanout),
		"levels":      float64(b.tree.Levels),
		"sig_bytes":   float64(b.opts.SigBytes),
	}
}

// M returns the tree copies per cycle.
func (b *Broadcast) M() int { return b.m }

// Tree exposes the group-level index tree for tests.
func (b *Broadcast) Tree() *btree.Tree { return b.tree }

// NewClient implements access.Broadcast.
func (b *Broadcast) NewClient(key uint64) access.Client {
	c := &client{
		b:     b,
		query: make(signature.Sig, b.opts.SigBytes),
		kbuf:  make([]byte, 0, b.ds.Config().KeySize),
	}
	c.Rewind(key)
	return c
}

type clientPhase uint8

const (
	phaseFirstProbe clientPhase = iota
	phaseNavigate
	phaseGroup
)

type client struct {
	b     *Broadcast
	key   uint64
	query signature.Sig
	kbuf  []byte // the key's encoding, reused across rewinds
	phase clientPhase
	group int
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k), and it reuses its query buffers.
//
//airlint:hotpath
func (c *client) Rewind(key uint64) {
	c.kbuf = c.query.SetQueryKey(key, c.b.ds.Config().KeySize, c.b.opts.BitsPerField, c.kbuf)
	c.key, c.phase, c.group = key, phaseFirstProbe, 0
}

func (c *client) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	b := c.b
	switch c.phase {
	case phaseFirstProbe:
		c.phase = phaseNavigate
		next := units.Index(b.nextSeg[i])
		return access.DozeAt(next, b.ch.NextOccurrence(next, end))

	case phaseNavigate:
		node := b.nodeOf[i]
		if node == nil {
			panic("hybrid: navigation landed off the index tree")
		}
		// Group-level routing: the first entry whose max key is >= the
		// query covers the only group that could hold it.
		j := node.ChildFor(c.key)
		if j < 0 {
			return access.Done(false) // beyond the broadcast key range
		}
		ib := b.ch.Bucket(i).(*indexBucket)
		tgt := units.Index(ib.local[j])
		if node.IsLeaf() {
			c.phase = phaseGroup
			c.group = node.DataFrom + j
		}
		return access.DozeAt(tgt, b.ch.NextOccurrence(tgt, end))

	case phaseGroup:
		r := b.recOf[i]
		if r < 0 || b.groupIdx[r] != c.group {
			// Ran past the routed group: the key is not broadcast.
			return access.Done(false)
		}
		if b.isSig[i] {
			if b.sigs[r].Covers(c.query) {
				return access.Next() // download the candidate record
			}
			// Doze over the data bucket to the next signature (or group end).
			next := i.Step(2, b.ch.NumBuckets())
			if b.recOf[next] < 0 || b.groupIdx[b.recOf[next]] != c.group {
				return access.Done(false)
			}
			return access.DozeAt(next, b.ch.NextOccurrence(next, end))
		}
		if b.ds.KeyAt(r) == c.key {
			return access.Done(true)
		}
		// False drop: continue with the next signature in the group.
		next := i.Next(b.ch.NumBuckets())
		if b.recOf[next] < 0 || b.groupIdx[b.recOf[next]] != c.group {
			return access.Done(false)
		}
		return access.DozeAt(next, b.ch.NextOccurrence(next, end))
	}
	panic("hybrid: invalid client phase")
}
