// Package flat implements plain broadcast — the paper's baseline with no
// access method at all (§4.2 "flat or plain broadcast").
//
// The server broadcasts one data bucket per record, in key order, with no
// index information. Clients have no way to selectively tune: they listen
// to every bucket until the requested record arrives, so the expected
// access time and tuning time are both about half the broadcast cycle, and
// a failed search must scan the entire cycle.
package flat

import (
	"fmt"
	"math"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/analytical"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Name is the scheme's registry name.
const Name = "flat"

// dataBucket is one record on the air: common header + key + attributes.
type dataBucket struct {
	seq int
	rec datagen.Record
	ds  *datagen.Dataset
}

func (b *dataBucket) Size() units.ByteCount {
	return wire.HeaderSize + units.Bytes(b.ds.Config().RecordSize)
}

func (b *dataBucket) Kind() wire.Kind { return wire.KindData }

func (b *dataBucket) Encode() []byte {
	w := wire.NewWriter(b.Size())
	w.Header(wire.Header{Kind: wire.KindData, Seq: uint32(b.seq)})
	w.Raw(b.ds.EncodeKey(b.rec.Key))
	for _, a := range b.rec.Attrs {
		w.Raw([]byte(a))
	}
	return w.Bytes()
}

// Broadcast is a flat broadcast cycle over a dataset.
type Broadcast struct {
	ds *datagen.Dataset
	ch *channel.Channel
}

// Build constructs the flat broadcast for a dataset.
func Build(ds *datagen.Dataset) (*Broadcast, error) {
	buckets := make([]channel.Bucket, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		buckets[i] = &dataBucket{seq: i, rec: ds.Record(i), ds: ds}
	}
	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("flat: %w", err)
	}
	return &Broadcast{ds: ds, ch: ch}, nil
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
		"bucket_size": float64(b.ch.SizeOf(0)),
	}
}

// Model is flat broadcast's closed form (§4.2) in bytes. A serial scan
// never dozes, so replication over K channels gains it nothing.
func Model(data datagen.Config, multi multichannel.Config, _ map[string]float64) (accessBytes, tuningBytes float64) {
	if multi.Enabled() && multi.Policy != multichannel.PolicyReplicated {
		return math.NaN(), math.NaN()
	}
	bucket := float64(wire.HeaderSize + units.Bytes(data.RecordSize))
	return analytical.FlatAccess(data.NumRecords) * bucket,
		analytical.FlatTuning(data.NumRecords) * bucket
}

// NewClient implements access.Broadcast: scan every bucket until the key
// matches or a full cycle has been examined.
func (b *Broadcast) NewClient(key uint64) access.Client {
	return &client{b: b, key: key}
}

// Resolve implements access.Resolver: the serial scan over uniform
// buckets in closed form, bit-identical to stepping the client. From
// the first complete bucket at or after the arrival (index f), the
// client reads consecutive buckets; bucket i carries record i in key
// order, so a present key at record r is found on read ((r-f) mod N)+1
// and a missing key is proven absent after exactly N reads. Buckets are
// contiguous and uniform, so the final read ends probes·size bytes
// after the first bucket's start.
//
//airlint:hotpath
func (b *Broadcast) Resolve(key uint64, arrival sim.Time) (access.Result, bool) {
	n := b.ds.Len()
	size := b.ch.SizeOf(0) // uniform: header + record
	cyc := b.ch.CycleLen()
	base := units.CycleBase(arrival, cyc)
	off := units.CycleOffset(arrival, cyc).Extent()
	// First complete bucket at or after the arrival, as a cycle slot in
	// [0, n]; slot n is the next cycle's bucket 0 and needs no wrapping
	// because n·size is exactly the cycle length.
	slot := (off + size - 1).Div(size)
	start := base + size.Times(slot).Span()
	first := slot % n

	var res access.Result
	rec, ok := b.ds.Find(key)
	if ok {
		res.Probes = (rec-first+n)%n + 1
	} else {
		res.Probes = n
	}
	res.Tuning = size.Times(res.Probes)
	res.Access = units.Elapsed(arrival, start+res.Tuning.Span())
	res.Found = ok
	return res, true
}

type client struct {
	b    *Broadcast
	key  uint64
	read int
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k).
func (c *client) Rewind(key uint64) {
	c.key = key
	c.read = 0
}

func (c *client) OnBucket(i units.BucketIndex, _ sim.Time) access.Step {
	c.read++
	if c.b.ds.KeyAt(int(i)) == c.key {
		return access.Done(true)
	}
	if units.Count(c.read) >= c.b.ch.NumBuckets() {
		// A full cycle scanned without a match: the record is not being
		// broadcast.
		return access.Done(false)
	}
	return access.Next()
}

// NewAttrClient implements access.AttrQuerier. Flat broadcast has no
// filtering aid, so attribute queries scan record after record just like
// key queries — the baseline the signature schemes improve on.
func (b *Broadcast) NewAttrClient(attr int, value string) access.Client {
	return &attrClient{b: b, attr: attr, value: value}
}

type attrClient struct {
	b     *Broadcast
	attr  int
	value string
	read  int
}

func (c *attrClient) OnBucket(i units.BucketIndex, _ sim.Time) access.Step {
	c.read++
	attrs := c.b.ds.Record(int(i)).Attrs
	if c.attr >= 0 && c.attr < len(attrs) && attrs[c.attr] == c.value {
		return access.Done(true)
	}
	if units.Count(c.read) >= c.b.ch.NumBuckets() {
		return access.Done(false)
	}
	return access.Next()
}
