package signature

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/analytical"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/multichannel"
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
	// cols is the bit-sliced signature file (the buckets keep the wire
	// bytes): column j, the records whose signature sets bit j, is the
	// bitset cols[j*stride : (j+1)*stride], record i at bit i%64 of word
	// i/64.
	cols   []uint64
	stride int
	// sigSize and dataSize are the uniform bucket sizes of each kind.
	sigSize, dataSize units.ByteCount
}

// Build constructs the simple signature broadcast.
func Build(ds *datagen.Dataset, opts Options) (*Broadcast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n, sb := ds.Len(), opts.SigBytes
	stride := (n + 63) / 64
	cols := make([]uint64, sb*8*stride)
	sigs := make([]byte, n*sb)
	sigBuckets, dataBuckets := make([]sigBucket, n), make([]dataBucket, n)
	buckets := make([]channel.Bucket, 0, 2*n)
	keySize := ds.Config().KeySize
	var kbuf []byte
	for i := 0; i < n; i++ {
		rec := ds.Record(i)
		sig := Sig(sigs[i*sb : (i+1)*sb : (i+1)*sb])
		kbuf = sig.AddRecord(rec, keySize, opts.BitsPerField, kbuf)
		for j := range sb * 8 {
			if sig[j/8]>>(j%8)&1 != 0 {
				cols[j*stride+i/64] |= 1 << (i % 64)
			}
		}
		sigBuckets[i] = sigBucket{seq: 2 * i, sig: sig}
		dataBuckets[i] = dataBucket{seq: 2*i + 1, rec: rec, ds: ds}
		buckets = append(buckets, &sigBuckets[i], &dataBuckets[i])
	}
	ch, err := channel.Build(buckets)
	if err != nil {
		return nil, fmt.Errorf("signature: %w", err)
	}
	return &Broadcast{
		ds: ds, ch: ch, opts: opts, cols: cols, stride: stride,
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

// Model is simple signature indexing's closed form (§2.3) in bytes over
// the broadcast's Params. The scan never dozes, so replication over K
// channels gains it nothing.
func Model(data datagen.Config, multi multichannel.Config, p map[string]float64) (accessBytes, tuningBytes float64) {
	if multi.Enabled() && multi.Policy != multichannel.PolicyReplicated {
		return math.NaN(), math.NaN()
	}
	sigBytes, bitsPerField := int(p["sig_bytes"]), int(p["bits_per_field"])
	dataBucket := float64(wire.HeaderSize + units.Bytes(data.RecordSize))
	sigBucket := float64(wire.HeaderSize + units.Bytes(sigBytes))
	fd := analytical.SignatureExpectedFalseDrops(data.NumRecords, sigBytes, bitsPerField, data.NumAttributes+1)
	return analytical.SignatureAccess(data.NumRecords, dataBucket, sigBucket),
		analytical.SignatureTuning(data.NumRecords, dataBucket, sigBucket, fd)
}

// keyQuery appends the signature bits of a key-equality query — the hash
// of the encoded key field alone — to q, using kbuf as the encoding
// buffer (it stays on the caller's stack when wide enough).
func (b *Broadcast) keyQuery(q []int, kbuf []byte, key uint64) []int {
	enc := datagen.AppendKey(kbuf[:0], key, b.ds.Config().KeySize)
	return fieldBits(q, sim.FNV64a(enc), b.opts.SigBytes, b.opts.BitsPerField)
}

// covers reports whether record rec's signature sets every query bit.
func (b *Broadcast) covers(q []int, rec int) bool {
	w, bit := rec/64, uint64(1)<<(rec%64)
	for _, j := range q {
		if b.cols[j*b.stride+w]&bit == 0 {
			return false
		}
	}
	return true
}

// NewClient implements access.Broadcast: read each signature bucket; on a
// covering signature read the following data bucket and check the key
// (false drops keep scanning); doze over data buckets whose signatures do
// not match.
func (b *Broadcast) NewClient(key uint64) access.Client {
	c := &client{b: b, kbuf: make([]byte, 0, b.ds.Config().KeySize)}
	c.Rewind(key)
	return c
}

// NewAttrClient implements access.AttrQuerier: record signatures
// superimpose every field, so an attribute-equality query runs the same
// protocol with a query signature hashed from the attribute value instead
// of the key — the multi-attribute filtering of [8].
func (b *Broadcast) NewAttrClient(attr int, value string) access.Client {
	return &client{
		b:      b,
		query:  fieldBits(nil, sim.FNV64a(value), b.opts.SigBytes, b.opts.BitsPerField),
		byAttr: true,
		attr:   attr,
		value:  value,
	}
}

// Resolver limits: a key query's encoding and signature bits are built
// in fixed stack buffers, and Resolve declines (the caller then steps the
// client) for wider keys or heavier query signatures than these.
const (
	maxResolveKeyBytes = 64
	maxResolveWeight   = 256
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
	var qbuf [maxResolveWeight]int
	var kbuf [maxResolveKeyBytes]byte
	if b.opts.BitsPerField > len(qbuf) || b.ds.Config().KeySize > len(kbuf) {
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
	q := b.keyQuery(qbuf[:0], kbuf[:], key)
	k := n // signatures read
	if present {
		k = (rec-r+n)%n + 1
	}
	covered := b.countCovers(q, r, k) // data buckets read
	res.Probes += k + covered
	res.Tuning += b.sigSize.Times(k) + b.dataSize.Times(covered)
	end := t + (b.sigSize + b.dataSize).Times(k-1).Span() + b.sigSize.Span()
	if last := (r + k - 1) % n; b.covers(q, last) {
		end += b.dataSize.Span()
	}
	res.Access = units.Elapsed(arrival, end)
	res.Found = present
	return res, true
}

// countCovers counts the record signatures covering q among the k
// records from r on, in cycle order: it ANDs the query's columns a word
// of 64 records at a time, masks the range's edge words, wraps at the
// cycle's end and counts the bits left.
func (b *Broadcast) countCovers(q []int, r, k int) int {
	n, c := b.ds.Len(), 0
	for k > 0 {
		to := min(r+k, n)
		first, last := r/64, (to-1)/64
		for w := first; w <= last; w++ {
			m := ^uint64(0)
			if w == first {
				m <<= r % 64
			}
			if w == last {
				m &= ^uint64(0) >> (63 - (to-1)%64)
			}
			for _, j := range q {
				m &= b.cols[j*b.stride+w]
			}
			c += bits.OnesCount64(m)
		}
		k -= to - r
		r = 0
	}
	return c
}

// client scans for a key, or for an attribute value when byAttr is set.
type client struct {
	b       *Broadcast
	query   []int  // signature bits
	kbuf    []byte // KeySize-capacity scratch for the key's encoding
	key     uint64
	byAttr  bool
	attr    int
	value   string
	scanned int // signature buckets examined
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k), and it reuses its query buffers.
//
//airlint:hotpath
func (c *client) Rewind(key uint64) {
	c.query = c.b.keyQuery(c.query[:0], c.kbuf, key)
	c.key, c.byAttr, c.attr, c.value, c.scanned = key, false, 0, "", 0
}

// match reports whether record rec is the one the client looks for.
func (c *client) match(rec int) bool {
	if !c.byAttr {
		return c.b.ds.KeyAt(rec) == c.key
	}
	attrs := c.b.ds.Record(rec).Attrs
	return c.attr >= 0 && c.attr < len(attrs) && attrs[c.attr] == c.value
}

func (c *client) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	ch := c.b.ch
	if i%2 == 0 {
		// Signature bucket for record i/2.
		c.scanned++
		if c.b.covers(c.query, int(i/2)) {
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
