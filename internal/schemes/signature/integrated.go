package signature

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// IntegratedName is the integrated scheme's registry name.
const IntegratedName = "signature-integrated"

// An integrated signature superimposes the signatures of a whole group of
// consecutive records ([8]). The cycle is [isig(g0), data..., isig(g1),
// data...]: one group signature bucket before each group of GroupSize data
// buckets. A non-covering group signature lets the client doze over the
// entire group; a covering one forces it to scan the group's records.

// IntegratedBroadcast is the integrated-signature cycle.
type IntegratedBroadcast struct {
	ds        *datagen.Dataset
	ch        *channel.Channel
	opts      Options
	groupSigs []Sig
	// bucket metadata, parallel to the channel
	groupOf  []int // group index for every bucket
	recordOf []int // record index for data buckets, -1 for signature buckets
	groups   int
	// sigStart[g] is the bucket index of group g's signature bucket.
	sigStart []int
}

// BuildIntegrated constructs the integrated-signature broadcast.
func BuildIntegrated(ds *datagen.Dataset, opts Options) (*IntegratedBroadcast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	b := &IntegratedBroadcast{ds: ds, opts: opts}
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
			kbuf = gsig.AddRecord(ds.Record(i), keySize, opts.BitsPerField, kbuf)
		}
		b.groupSigs = append(b.groupSigs, gsig)
		b.sigStart = append(b.sigStart, len(buckets))
		buckets = append(buckets, &sigBucket{seq: len(buckets), sig: gsig})
		b.groupOf = append(b.groupOf, g)
		b.recordOf = append(b.recordOf, -1)
		for i := from; i < to; i++ {
			buckets = append(buckets, &dataBucket{seq: len(buckets), rec: ds.Record(i), ds: ds})
			b.groupOf = append(b.groupOf, g)
			b.recordOf = append(b.recordOf, i)
		}
	}
	b.groups = len(b.groupSigs)
	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("signature-integrated: %w", err)
	}
	b.ch = ch
	return b, nil
}

// Name implements access.Broadcast.
func (b *IntegratedBroadcast) Name() string { return IntegratedName }

// Channel implements access.Broadcast.
func (b *IntegratedBroadcast) Channel() *channel.Channel { return b.ch }

// Contains implements access.Broadcast.
func (b *IntegratedBroadcast) Contains(key uint64) bool {
	_, ok := b.ds.Find(key)
	return ok
}

// Params implements access.Broadcast.
func (b *IntegratedBroadcast) Params() map[string]float64 {
	return map[string]float64{
		"records":         float64(b.ds.Len()),
		"cycle_bytes":     float64(b.ch.CycleLen()),
		"groups":          float64(b.groups),
		"group_size":      float64(b.opts.GroupSize),
		"group_sig_bytes": float64(b.opts.GroupSigBytes),
	}
}

// NewClient implements access.Broadcast.
func (b *IntegratedBroadcast) NewClient(key uint64) access.Client {
	c := &integratedClient{
		b:     b,
		query: make(Sig, b.opts.GroupSigBytes),
		kbuf:  make([]byte, 0, b.ds.Config().KeySize),
	}
	c.Rewind(key)
	return c
}

type integratedClient struct {
	b       *IntegratedBroadcast
	key     uint64
	query   Sig
	kbuf    []byte // the key's encoding, reused across rewinds
	scanned int    // group signatures examined
	inGroup bool
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k), and it reuses its query buffers.
//
//airlint:hotpath
func (c *integratedClient) Rewind(key uint64) {
	c.kbuf = c.query.SetQueryKey(key, c.b.ds.Config().KeySize, c.b.opts.BitsPerField, c.kbuf)
	c.key, c.scanned, c.inGroup = key, 0, false
}

func (c *integratedClient) nextGroupStep(i units.BucketIndex, end sim.Time) access.Step {
	if c.scanned >= c.b.groups {
		return access.Done(false)
	}
	g := (c.b.groupOf[i] + 1) % c.b.groups
	tgt := units.Index(c.b.sigStart[g])
	return access.DozeAt(tgt, c.b.ch.NextOccurrence(tgt, end))
}

func (c *integratedClient) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	if c.b.recordOf[i] < 0 {
		// Group signature bucket.
		c.scanned++
		c.inGroup = false
		if c.b.groupSigs[c.b.groupOf[i]].Covers(c.query) {
			c.inGroup = true
			return access.Next() // scan the group's records
		}
		return c.nextGroupStep(i, end)
	}
	// Data bucket inside a group the client is scanning.
	if c.b.ds.KeyAt(c.b.recordOf[i]) == c.key {
		return access.Done(true)
	}
	// Last record of the group? Move to the next group signature.
	last := i.IsLast(c.b.ch.NumBuckets()) || c.b.recordOf[i.Next(c.b.ch.NumBuckets())] < 0
	if last {
		return c.nextGroupStep(i, end)
	}
	return access.Next()
}
