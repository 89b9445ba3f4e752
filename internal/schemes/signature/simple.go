package signature

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Name is the simple scheme's registry name.
const Name = "signature"

// sigBucket carries one record signature; it precedes the record's data
// bucket on the channel.
type sigBucket struct {
	seq int
	sig Sig
}

func (b *sigBucket) Size() units.ByteCount { return wire.HeaderSize + units.Bytes(len(b.sig)) }
func (b *sigBucket) Kind() wire.Kind       { return wire.KindSignature }

func (b *sigBucket) Encode() []byte {
	w := wire.NewWriter(b.Size())
	w.Header(wire.Header{Kind: wire.KindSignature, Seq: uint32(b.seq)})
	w.Raw(b.sig)
	return w.Bytes()
}

// dataBucket carries one full record.
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

// Broadcast is the simple signature-indexed cycle: sig(0), data(0),
// sig(1), data(1), ...
type Broadcast struct {
	ds   *datagen.Dataset
	ch   *channel.Channel
	opts Options
	// words holds every record signature packed for matching (the
	// buckets keep the wire bytes): record i's is
	// words[i*nwords : (i+1)*nwords].
	words  []uint64
	nwords int
	// sigSize and dataSize are the uniform bucket sizes of each kind.
	sigSize, dataSize units.ByteCount
}

// Build constructs the simple signature broadcast.
func Build(ds *datagen.Dataset, opts Options) (*Broadcast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nw := (opts.SigBytes + 7) / 8
	words := make([]uint64, ds.Len()*nw)
	buckets := make([]channel.Bucket, 0, 2*ds.Len())
	for i := 0; i < ds.Len(); i++ {
		rec := ds.Record(i)
		fields := make([][]byte, 0, 1+len(rec.Attrs))
		fields = append(fields, ds.EncodeKey(rec.Key))
		for _, a := range rec.Attrs {
			fields = append(fields, []byte(a))
		}
		sig := RecordSig(fields, opts.SigBytes, opts.BitsPerField)
		pack(words[i*nw:(i+1)*nw], sig)
		buckets = append(buckets,
			&sigBucket{seq: 2 * i, sig: sig},
			&dataBucket{seq: 2*i + 1, rec: rec, ds: ds},
		)
	}
	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("signature: %w", err)
	}
	return &Broadcast{
		ds: ds, ch: ch, opts: opts, words: words, nwords: nw,
		sigSize: ch.SizeOf(0), dataSize: ch.SizeOf(1),
	}, nil
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
		"records":        float64(b.ds.Len()),
		"cycle_bytes":    float64(b.ch.CycleLen()),
		"sig_bytes":      float64(b.opts.SigBytes),
		"bits_per_field": float64(b.opts.BitsPerField),
	}
}

// sig returns record i's packed signature.
func (b *Broadcast) sig(i int) []uint64 { return b.words[i*b.nwords : (i+1)*b.nwords] }

// keyQuery ORs the packed query signature of a key-equality query — the
// hash of the encoded key field alone — into q, using kbuf as the
// encoding buffer (it stays on the caller's stack when wide enough).
func (b *Broadcast) keyQuery(q []uint64, kbuf []byte, key uint64) {
	enc := datagen.AppendKey(kbuf[:0], key, b.ds.Config().KeySize)
	packField(q, fieldHash(enc), b.opts.SigBytes, b.opts.BitsPerField)
}

// NewClient implements access.Broadcast: read each signature bucket; on a
// covering signature read the following data bucket and check the key
// (false drops keep scanning); doze over data buckets whose signatures do
// not match.
func (b *Broadcast) NewClient(key uint64) access.Client {
	q := make([]uint64, b.nwords)
	b.keyQuery(q, nil, key)
	return &client{
		b:     b,
		query: q,
		match: func(rec int) bool { return b.ds.KeyAt(rec) == key },
	}
}

// NewAttrClient implements access.AttrQuerier: record signatures
// superimpose every field, so an attribute-equality query runs the same
// protocol with a query signature hashed from the attribute value instead
// of the key — the multi-attribute filtering of [8].
func (b *Broadcast) NewAttrClient(attr int, value string) access.Client {
	q := make([]uint64, b.nwords)
	packField(q, fieldHash([]byte(value)), b.opts.SigBytes, b.opts.BitsPerField)
	return &client{
		b:     b,
		query: q,
		match: func(rec int) bool {
			attrs := b.ds.Record(rec).Attrs
			return attr >= 0 && attr < len(attrs) && attrs[attr] == value
		},
	}
}

// Resolver limits: a key query's encoding and signature are built in
// fixed stack buffers, and Resolve declines (the caller then steps the
// client) for keys or signatures wider than these.
const (
	maxResolveKeyBytes = 64
	maxResolveSigWords = 16
)

// Resolve implements access.Resolver: the client's scan in closed form,
// bit-identical to stepping it. The walk starts at the first complete
// bucket after the arrival; when that is a data bucket, the client reads
// it and checks its key, then moves on to the next record's signature.
// From there it reads record signatures in cycle order, at most one per
// record: each costs a signature bucket, and a covering one also costs
// the data bucket behind it. A present key stops at its own record,
// whose signature always covers the query; a missing key stops after
// all N signatures. Sig and data buckets are uniform and contiguous, so
// the scan's k-th signature starts (k-1)·(sig+data) bytes after the
// first, and only the covering count needs a pass over the signatures.
//
//airlint:hotpath
func (b *Broadcast) Resolve(key uint64, arrival sim.Time) (access.Result, bool) {
	var qbuf [maxResolveSigWords]uint64
	var kbuf [maxResolveKeyBytes]byte
	if b.nwords > len(qbuf) || b.ds.Config().KeySize > len(kbuf) {
		return access.Result{}, false
	}
	n := b.ds.Len()
	rec, present := b.ds.Find(key)
	idx, t := b.ch.NextBucketAt(arrival)
	var res access.Result
	r := int(idx / 2)
	if idx%2 == 1 {
		// Tuned in on record r's data bucket.
		res.Probes, res.Tuning = 1, b.dataSize
		t += b.dataSize.Span()
		if present && rec == r {
			res.Access = units.Elapsed(arrival, t)
			res.Found = true
			return res, true
		}
		r = (r + 1) % n
	}
	q := qbuf[:b.nwords]
	b.keyQuery(q, kbuf[:], key)
	k := n // signatures read
	if present {
		k = (rec-r+n)%n + 1
	}
	covered := b.countCovers(q, r, k) // data buckets read
	res.Probes += k + covered
	res.Tuning += b.sigSize.Times(k) + b.dataSize.Times(covered)
	end := t + (b.sigSize + b.dataSize).Times(k-1).Span() + b.sigSize.Span()
	if last := (r + k - 1) % n; coversWords(b.sig(last), q) {
		end += b.dataSize.Span()
	}
	res.Access = units.Elapsed(arrival, end)
	res.Found = present
	return res, true
}

// countCovers counts the record signatures covering q among the k
// records from r on, in cycle order.
func (b *Broadcast) countCovers(q []uint64, r, k int) int {
	n, c := b.ds.Len(), 0
	for k > 0 {
		to := min(r+k, n)
		for w := b.words[r*b.nwords : to*b.nwords]; len(w) > 0; w = w[b.nwords:] {
			if coversWords(w, q) {
				c++
			}
		}
		k -= to - r
		r = 0
	}
	return c
}

type client struct {
	b       *Broadcast
	query   []uint64
	match   func(rec int) bool
	scanned int // signature buckets examined
}

func (c *client) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	ch := c.b.ch
	if i%2 == 0 {
		// Signature bucket for record i/2.
		c.scanned++
		if coversWords(c.b.sig(int(i/2)), c.query) {
			return access.Next() // download the data bucket that follows
		}
		if c.scanned >= c.b.ds.Len() {
			return access.Done(false)
		}
		// Doze over the data bucket to the next signature bucket.
		next := i.Step(2, ch.NumBuckets())
		return access.DozeAt(next, ch.NextOccurrence(next, end))
	}
	// Data bucket for record i/2: either the request or a false drop.
	if c.match(int(i / 2)) {
		return access.Done(true)
	}
	if c.scanned >= c.b.ds.Len() {
		return access.Done(false)
	}
	next := i.Next(ch.NumBuckets())
	return access.DozeAt(next, ch.NextOccurrence(next, end))
}
