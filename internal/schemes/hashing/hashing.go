// Package hashing implements the simple hashing scheme for wireless
// broadcast (paper §2.2, after Imielinski et al. [7]).
//
// There are no separate index buckets: every data bucket carries a control
// part next to its record. The server allocates Na hash positions and maps
// keys to positions with a hash function; colliding records are inserted
// right after the bucket with the same hash value, shifting later records
// ("out of place"). The control part of each of the first Na buckets holds
// a shift value pointing at the true start of that position's chain; later
// buckets point at the beginning of the next broadcast cycle instead.
//
// A client hashes its key, dozes to the hash position (wrapping to the
// next cycle if it already passed — the paper's extra bucket read), follows
// the shift value to the chain, and scans the chain until the record or a
// bucket with a different hash value arrives (search failure).
//
// A hash position to which no record maps would break the directory
// property (chains could start before their position), so such positions
// hold an explicitly flagged empty bucket; clients treat an empty bucket
// with their hash value as a failed search. The paper assumes a hash
// function that leaves no position empty; the flag makes the scheme sound
// for any function.
package hashing

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
const Name = "hashing"

// Options configures the hashing broadcast.
type Options struct {
	// LoadFactor is the target average chain length: the server allocates
	// Na = round(Nr / LoadFactor) hash positions. Larger values shrink the
	// directory but lengthen overflow chains (paper: "the average
	// overflow").
	LoadFactor float64
}

// DefaultOptions matches the behaviour the paper's figures show: a fixed
// overflow rate independent of the record count.
func DefaultOptions() Options { return Options{LoadFactor: 3} }

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.LoadFactor < 1 || math.IsNaN(o.LoadFactor) || math.IsInf(o.LoadFactor, 0) {
		return fmt.Errorf("hashing: LoadFactor %v must be at least 1", o.LoadFactor)
	}
	return nil
}

// hashBucket is one on-air bucket: control part (flags, hash value, shift
// offset, next-cycle offset) plus the data part (a full record, or zero
// padding for an empty position).
type hashBucket struct {
	seq     int
	hashVal uint32
	empty   bool
	// offsetBytes is the wire form of the shift value for directory
	// buckets (seq < Na): the byte delta from this bucket's end to its
	// position's chain head; -1 for non-directory buckets.
	offsetBytes int64
	// cycleRemain is the byte delta from this bucket's end to the start of
	// the next broadcast cycle. The paper stores it only in buckets past
	// Na; carrying it everywhere is what lets a client that tuned in at a
	// directory bucket past its hash position wait out the cycle without
	// scanning for a trailer bucket.
	cycleRemain int64
	rec         datagen.Record
	ds          *datagen.Dataset
}

// controlSize is flags (1) + hash value (4) + shift offset + next-cycle
// offset.
const controlSize = 1 + 4 + wire.OffsetSize + wire.OffsetSize

func (b *hashBucket) Size() units.ByteCount {
	return wire.HeaderSize + controlSize + units.Bytes(b.ds.Config().RecordSize)
}

func (b *hashBucket) Kind() wire.Kind { return wire.KindHash }

func (b *hashBucket) Encode() []byte {
	w := wire.NewWriter(b.Size())
	w.Header(wire.Header{Kind: wire.KindHash, Seq: uint32(b.seq)})
	if b.empty {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U32(b.hashVal)
	w.Offset(b.offsetBytes)
	w.Offset(b.cycleRemain)
	if b.empty {
		w.Pad(units.Bytes(b.ds.Config().RecordSize))
	} else {
		w.Raw(b.ds.EncodeKey(b.rec.Key))
		for _, a := range b.rec.Attrs {
			w.Raw([]byte(a))
		}
	}
	return w.Bytes()
}

// Broadcast is a hash-organized broadcast cycle.
type Broadcast struct {
	ds   *datagen.Dataset
	ch   *channel.Channel
	opts Options

	na         int   // allocated hash positions
	chainStart []int // bucket index where each hash value's region begins
	recIdx     []int // record index per bucket, -1 for empty buckets
	hashOf     []uint32
	overflow   int // colliding (shifted) buckets, the paper's Nc
	empties    int
}

// Build constructs the hashing broadcast for a dataset.
func Build(ds *datagen.Dataset, opts Options) (*Broadcast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	na := int(math.Round(float64(ds.Len()) / opts.LoadFactor))
	if na < 1 {
		na = 1
	}
	b := &Broadcast{ds: ds, opts: opts, na: na, chainStart: make([]int, na)}

	// Bucket records by hash value, preserving key order within chains.
	chains := make([][]int, na)
	for i := 0; i < ds.Len(); i++ {
		h := b.hashKey(ds.KeyAt(i))
		chains[h] = append(chains[h], i)
	}

	// Physical layout: each hash value's chain (or an empty bucket) in
	// hash-value order. The directory property chainStart[h] >= h holds
	// because every value occupies at least one bucket.
	var buckets []*hashBucket
	for h := 0; h < na; h++ {
		b.chainStart[h] = len(buckets)
		if len(chains[h]) == 0 {
			b.empties++
			buckets = append(buckets, &hashBucket{seq: len(buckets), hashVal: uint32(h), empty: true, ds: ds})
			b.recIdx = append(b.recIdx, -1)
			b.hashOf = append(b.hashOf, uint32(h))
			continue
		}
		b.overflow += len(chains[h]) - 1
		for _, rec := range chains[h] {
			buckets = append(buckets, &hashBucket{seq: len(buckets), hashVal: uint32(h), rec: ds.Record(rec), ds: ds})
			b.recIdx = append(b.recIdx, rec)
			b.hashOf = append(b.hashOf, uint32(h))
		}
	}

	// Fill in wire control offsets now that positions are final.
	chBuckets := make([]channel.Bucket, len(buckets))
	bucketSize := buckets[0].Size()
	total := bucketSize.Times(len(buckets))
	for p, bk := range buckets {
		endOfP := bucketSize.Times(p + 1)
		bk.cycleRemain = int64(total - endOfP)
		if p < na {
			// Shift value: byte delta from this bucket's end to the start
			// of position p's chain (possibly this very bucket: delta of
			// one full wrap is never needed since chainStart[p] >= p).
			delta := bucketSize.Times(b.chainStart[p]) - endOfP
			if delta < 0 {
				delta = 0 // chain starts at or before this bucket: it IS the chain head
			}
			bk.offsetBytes = int64(delta)
		} else {
			bk.offsetBytes = -1
		}
		chBuckets[p] = bk
	}
	ch, err := channel.Build(chBuckets)
	if err != nil {
		return nil, fmt.Errorf("hashing: %w", err)
	}
	b.ch = ch
	return b, nil
}

// hashKey maps a key to a hash position via FNV-64a over the encoded key.
// The key is encoded into a stack buffer, so a client's Rewind does not
// allocate for keys up to its width.
//
//airlint:hotpath
func (b *Broadcast) hashKey(key uint64) int {
	var buf [64]byte
	return int(sim.FNV64a(datagen.AppendKey(buf[:0], key, b.ds.Config().KeySize)) % uint64(b.na))
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
		"Na":          float64(b.na),
		"Nc":          float64(b.overflow),
		"empties":     float64(b.empties),
		"load_factor": b.opts.LoadFactor,
	}
}

// Model is simple hashing's closed form (§2.2) in bytes over the
// broadcast's Params, with its replicated K-channel form.
func Model(data datagen.Config, multi multichannel.Config, p map[string]float64) (accessBytes, tuningBytes float64) {
	hp := analytical.HashParams{Allocated: p["Na"], Colliding: p["Nc"], Records: float64(data.NumRecords)}
	// Cycle buckets = Na + Nc (every record plus one filler per empty
	// position), all uniform size.
	bucket := p["cycle_bytes"] / (p["Na"] + p["Nc"])
	tuningBytes = analytical.HashingTuning(hp) * bucket
	switch {
	case !multi.Enabled():
		return analytical.HashingAccess(hp) * bucket, tuningBytes
	case multi.Policy == multichannel.PolicyReplicated:
		return analytical.HashingAccessK(hp, multi.Channels) * bucket, tuningBytes
	default:
		return math.NaN(), math.NaN()
	}
}

// NewClient implements access.Broadcast.
func (b *Broadcast) NewClient(key uint64) access.Client {
	return &client{b: b, key: key, target: b.hashKey(key)}
}

type clientPhase uint8

const (
	phaseSeek  clientPhase = iota // locating the hash position
	phaseChain                    // scanning the chain at the shift position
)

type client struct {
	b         *Broadcast
	key       uint64
	target    int // H(K): hash position, also the bucket index of the directory entry
	phase     clientPhase
	chainRead int // buckets examined in the chain phase
}

// Rewind implements access.Rewinder: after Rewind(k) the client is
// indistinguishable from NewClient(k).
func (c *client) Rewind(key uint64) {
	c.key = key
	c.target = c.b.hashKey(key)
	c.phase = phaseSeek
	c.chainRead = 0
}

func (c *client) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	b := c.b
	ch := b.ch
	tgt := units.Index(c.target)
	switch c.phase {
	case phaseSeek:
		switch {
		case i == tgt:
			// At the hash position: follow the shift value to the chain.
			start := units.Index(b.chainStart[c.target])
			if start == i {
				// This bucket heads the chain; examine it immediately.
				c.phase = phaseChain
				return c.examine(i, end)
			}
			c.phase = phaseChain
			return access.DozeAt(start, ch.NextOccurrence(start, end))
		case i < tgt:
			// Hash position still ahead in this cycle.
			return access.DozeAt(tgt, ch.NextOccurrence(tgt, end))
		default:
			// Missed it: wait for the beginning of the next broadcast and
			// probe again from there (the paper's extra bucket read).
			return access.DozeAt(0, ch.NextCycleStart(end))
		}
	case phaseChain:
		return c.examine(i, end)
	}
	panic("hashing: invalid client phase")
}

// examine checks one chain bucket: success, continue, or chain end.
func (c *client) examine(i units.BucketIndex, _ sim.Time) access.Step {
	b := c.b
	c.chainRead++
	if units.Count(c.chainRead) > b.ch.NumBuckets() {
		// A full cycle of chain reads without a terminator can only happen
		// when every bucket shares one hash value; the record is absent.
		return access.Done(false)
	}
	if int(b.hashOf[i]) != c.target {
		// A bucket with a different hashing value ends the chain: failure.
		return access.Done(false)
	}
	if b.recIdx[i] < 0 {
		// Explicitly empty position: nothing hashes here.
		return access.Done(false)
	}
	if b.ds.KeyAt(b.recIdx[i]) == c.key {
		return access.Done(true)
	}
	return access.Next()
}
