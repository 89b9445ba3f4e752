package signature

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// MultiLevelName is the multi-level scheme's registry name.
const MultiLevelName = "signature-multilevel"

// The multi-level scheme ([8]) combines both granularities: an integrated
// signature precedes each group, and a simple record signature still
// precedes every data bucket. Clients skip whole groups on an integrated
// mismatch and skip individual records on a record-signature mismatch, at
// the cost of both overheads in the cycle.

// MultiLevelBroadcast is the two-level signature cycle.
type MultiLevelBroadcast struct {
	ds        *datagen.Dataset
	ch        *channel.Channel
	opts      Options
	groupSigs []Sig
	recSigs   []Sig
	groups    int
	groupOf   []int
	recordOf  []int // record index for record-sig and data buckets, -1 for group sigs
	isRecSig  []bool
	sigStart  []int // bucket index of each group's integrated signature
}

// BuildMultiLevel constructs the multi-level signature broadcast.
func BuildMultiLevel(ds *datagen.Dataset, opts Options) (*MultiLevelBroadcast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	b := &MultiLevelBroadcast{ds: ds, opts: opts, recSigs: make([]Sig, ds.Len())}
	var buckets []channel.Bucket
	keySize := ds.Config().KeySize
	var kbuf []byte
	for from := 0; from < ds.Len(); from += opts.GroupSize {
		to := from + opts.GroupSize
		if to > ds.Len() {
			to = ds.Len()
		}
		g := len(b.groupSigs)
		gsig := make(Sig, opts.GroupSigBytes)
		for i := from; i < to; i++ {
			rec := ds.Record(i)
			b.recSigs[i] = make(Sig, opts.SigBytes)
			kbuf = b.recSigs[i].AddRecord(rec, keySize, opts.BitsPerField, kbuf)
			kbuf = gsig.AddRecord(rec, keySize, opts.BitsPerField, kbuf)
		}
		b.groupSigs = append(b.groupSigs, gsig)
		b.sigStart = append(b.sigStart, len(buckets))
		buckets = append(buckets, &sigBucket{seq: len(buckets), sig: gsig})
		b.groupOf = append(b.groupOf, g)
		b.recordOf = append(b.recordOf, -1)
		b.isRecSig = append(b.isRecSig, false)
		for i := from; i < to; i++ {
			buckets = append(buckets, &sigBucket{seq: len(buckets), sig: b.recSigs[i]})
			b.groupOf = append(b.groupOf, g)
			b.recordOf = append(b.recordOf, i)
			b.isRecSig = append(b.isRecSig, true)

			buckets = append(buckets, &dataBucket{seq: len(buckets), rec: ds.Record(i), ds: ds})
			b.groupOf = append(b.groupOf, g)
			b.recordOf = append(b.recordOf, i)
			b.isRecSig = append(b.isRecSig, false)
		}
	}
	b.groups = len(b.groupSigs)
	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("signature-multilevel: %w", err)
	}
	b.ch = ch
	return b, nil
}

// Name implements access.Broadcast.
func (b *MultiLevelBroadcast) Name() string { return MultiLevelName }

// Channel implements access.Broadcast.
func (b *MultiLevelBroadcast) Channel() *channel.Channel { return b.ch }

// Contains implements access.Broadcast.
func (b *MultiLevelBroadcast) Contains(key uint64) bool {
	_, ok := b.ds.Find(key)
	return ok
}

// Params implements access.Broadcast.
func (b *MultiLevelBroadcast) Params() map[string]float64 {
	return map[string]float64{
		"records":         float64(b.ds.Len()),
		"cycle_bytes":     float64(b.ch.CycleLen()),
		"groups":          float64(b.groups),
		"group_size":      float64(b.opts.GroupSize),
		"sig_bytes":       float64(b.opts.SigBytes),
		"group_sig_bytes": float64(b.opts.GroupSigBytes),
	}
}

// NewClient implements access.Broadcast.
func (b *MultiLevelBroadcast) NewClient(key uint64) access.Client {
	c := &multiLevelClient{
		b:      b,
		groupQ: make(Sig, b.opts.GroupSigBytes),
		recQ:   make(Sig, b.opts.SigBytes),
		kbuf:   make([]byte, 0, b.ds.Config().KeySize),
	}
	c.Rewind(key)
	return c
}

type multiLevelClient struct {
	b       *MultiLevelBroadcast
	key     uint64
	groupQ  Sig
	recQ    Sig
	kbuf    []byte // the key's encoding, reused across rewinds
	scanned int    // integrated signatures examined
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k), and it reuses its query buffers.
//
//airlint:hotpath
func (c *multiLevelClient) Rewind(key uint64) {
	keySize, weight := c.b.ds.Config().KeySize, c.b.opts.BitsPerField
	c.kbuf = c.groupQ.SetQueryKey(key, keySize, weight, c.kbuf)
	c.kbuf = c.recQ.SetQueryKey(key, keySize, weight, c.kbuf)
	c.key, c.scanned = key, 0
}

func (c *multiLevelClient) nextGroupStep(i units.BucketIndex, end sim.Time) access.Step {
	if c.scanned >= c.b.groups {
		return access.Done(false)
	}
	g := (c.b.groupOf[i] + 1) % c.b.groups
	tgt := units.Index(c.b.sigStart[g])
	return access.DozeAt(tgt, c.b.ch.NextOccurrence(tgt, end))
}

// nextRecSigStep dozes to the record signature after record rec within the
// same group, or to the next group signature when rec closes the group.
func (c *multiLevelClient) nextRecSigStep(i units.BucketIndex, end sim.Time) access.Step {
	ch := c.b.ch
	// The record signature bucket for the following record directly
	// follows this data bucket unless this record closed its group.
	next := i.Next(ch.NumBuckets())
	if c.b.recordOf[next] < 0 || c.b.groupOf[next] != c.b.groupOf[i] {
		return c.nextGroupStep(i, end)
	}
	return access.DozeAt(next, ch.NextOccurrence(next, end))
}

func (c *multiLevelClient) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	b := c.b
	if b.recordOf[i] < 0 {
		// Integrated (group) signature.
		c.scanned++
		if b.groupSigs[b.groupOf[i]].Covers(c.groupQ) {
			return access.Next() // descend into the group's record sigs
		}
		return c.nextGroupStep(i, end)
	}
	if b.isRecSig[i] {
		// Record signature within a matched group.
		if b.recSigs[b.recordOf[i]].Covers(c.recQ) {
			return access.Next() // download the data bucket
		}
		// Doze over the data bucket to the next bucket (record sig or next
		// group sig).
		next := i.Step(2, b.ch.NumBuckets())
		if b.recordOf[next] < 0 {
			return c.nextGroupStep(i, end)
		}
		return access.DozeAt(next, b.ch.NextOccurrence(next, end))
	}
	// Data bucket: the request or a false drop.
	if b.ds.KeyAt(b.recordOf[i]) == c.key {
		return access.Done(true)
	}
	return c.nextRecSigStep(i, end)
}
