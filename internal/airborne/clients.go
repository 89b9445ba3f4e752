package airborne

import (
	"bytes"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/schemes/treeidx"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// --- flat broadcast -------------------------------------------------------

type flatClient struct {
	b        Source
	c        Contract
	queryKey []byte
	read     int
}

func newFlatClient(b Source, c Contract, key uint64) *flatClient {
	return &flatClient{b: b, c: c, queryKey: datagen.EncodeKeyWidth(key, c.KeySize)}
}

func (cl *flatClient) OnBucket(i units.BucketIndex, _ sim.Time) access.Step {
	p := cl.b.Of(i)
	cl.read++
	keyOff := int(wire.HeaderSize)
	if bytes.Equal(p[keyOff:keyOff+cl.c.KeySize], cl.queryKey) {
		return access.Done(true)
	}
	if cl.read >= cl.c.NumRecords {
		// One full pass over the announced database: not broadcast.
		return access.Done(false)
	}
	return access.Next()
}

// --- simple signature -----------------------------------------------------

type sigClient struct {
	b        Source
	c        Contract
	query    signature.Sig
	queryKey []byte
	scanned  int
	dataSize units.ByteCount
}

func newSigClient(b Source, c Contract, key uint64) *sigClient {
	keyEnc := datagen.EncodeKeyWidth(key, c.KeySize)
	return &sigClient{
		b:        b,
		c:        c,
		query:    signature.QuerySig(keyEnc, c.SigBytes, c.BitsPerField),
		queryKey: keyEnc,
		dataSize: wire.HeaderSize + units.Bytes(c.RecordSize),
	}
}

func (cl *sigClient) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	p := cl.b.Of(i)
	h := header(p)
	payloadOff := int(wire.HeaderSize)
	if h.Kind == wire.KindSignature {
		cl.scanned++
		rec := signature.Sig(p[payloadOff : payloadOff+cl.c.SigBytes])
		if rec.Covers(cl.query) {
			return access.Next() // download the following data bucket
		}
		if cl.scanned >= cl.c.NumRecords {
			return access.Done(false)
		}
		// Doze over the fixed-size data bucket to the next signature.
		return access.Doze(end + cl.dataSize.Span())
	}
	// Data bucket: requested record or false drop.
	if bytes.Equal(p[payloadOff:payloadOff+cl.c.KeySize], cl.queryKey) {
		return access.Done(true)
	}
	if cl.scanned >= cl.c.NumRecords {
		return access.Done(false)
	}
	return access.Next() // the next signature bucket is adjacent
}

// --- simple hashing -------------------------------------------------------

type hashPhase uint8

const (
	hashSeek hashPhase = iota
	hashChain
)

type hashClient struct {
	b        Source
	c        Contract
	queryKey []byte
	target   int // H(K)
	phase    hashPhase
	read     int
}

func newHashClient(b Source, c Contract, key uint64) *hashClient {
	keyEnc := datagen.EncodeKeyWidth(key, c.KeySize)
	return &hashClient{
		b:        b,
		c:        c,
		queryKey: keyEnc,
		target:   hashPosition(keyEnc, c.HashPositions),
	}
}

// hashPosition applies the published hash function (FNV-64a mod Na).
func hashPosition(keyEnc []byte, na int) int {
	return int(sim.FNV64a(keyEnc) % uint64(na))
}

// control decodes a hash bucket's control part.
func (cl *hashClient) control(p []byte) (empty bool, hashVal uint32, shift, cycleRemain int64) {
	r := wire.NewReader(p)
	r.Header()
	empty = r.U8() == 1
	hashVal = r.U32()
	shift = r.Offset()
	cycleRemain = r.Offset()
	return
}

func (cl *hashClient) bucketSize() units.ByteCount {
	return wire.HeaderSize + 1 + 4 + 2*wire.OffsetSize + units.Bytes(cl.c.RecordSize)
}

func (cl *hashClient) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	p := cl.b.Of(i)
	h := header(p)
	empty, hashVal, shift, cycleRemain := cl.control(p)
	seq := int(h.Seq)
	switch cl.phase {
	case hashSeek:
		switch {
		case seq == cl.target:
			cl.phase = hashChain
			if shift <= 0 {
				return cl.examine(empty, hashVal, p)
			}
			return access.Doze(end + units.Bytes64(shift).Span())
		case seq < cl.target:
			// Uniform buckets: the hash position's start time is computable
			// from the sequence delta.
			return access.Doze(end + cl.bucketSize().Times(cl.target-seq-1).Span())
		default:
			// Missed it: wait out the cycle and probe again from the top
			// (the paper's extra bucket read).
			return access.Doze(end + units.Bytes64(cycleRemain).Span())
		}
	case hashChain:
		return cl.examine(empty, hashVal, p)
	}
	panic("airborne: invalid hash client phase")
}

func (cl *hashClient) examine(empty bool, hashVal uint32, p []byte) access.Step {
	cl.read++
	if units.Count(cl.read) > cl.b.NumBuckets() {
		return access.Done(false)
	}
	// A different hash value or an explicitly empty position ends the
	// chain without a match.
	if int(hashVal) != cl.target || empty {
		return access.Done(false)
	}
	keyOff := int(wire.HeaderSize + 1 + 4 + 2*wire.OffsetSize)
	if bytes.Equal(p[keyOff:keyOff+cl.c.KeySize], cl.queryKey) {
		return access.Done(true)
	}
	return access.Next()
}

// --- tree schemes ((1,m) and distributed indexing) -------------------------

type treePhase uint8

const (
	treeFirstProbe treePhase = iota
	treeNavigate
	treeDownload
)

type treeClient struct {
	b        Source
	c        Contract
	key      uint64
	queryKey []byte
	phase    treePhase
}

func newTreeClient(b Source, c Contract, key uint64) *treeClient {
	return &treeClient{
		b:        b,
		c:        c,
		key:      key,
		queryKey: datagen.EncodeKeyWidth(key, c.TreeLayout.KeySize),
	}
}

// nextSegDelta reads the next-index-segment offset shared by every bucket
// layout of the tree schemes (directly after the header).
func nextSegDelta(p []byte) int64 {
	r := wire.NewReader(p)
	r.Header()
	return r.Offset()
}

func (cl *treeClient) OnBucket(i units.BucketIndex, end sim.Time) access.Step {
	p := cl.b.Of(i)
	switch cl.phase {
	case treeFirstProbe:
		cl.phase = treeNavigate
		return access.Doze(end + units.Bytes64(nextSegDelta(p)).Span())

	case treeNavigate:
		d, err := treeidx.DecodeIndex(p, cl.c.TreeLayout)
		if err != nil {
			panic("airborne: navigation read a non-index bucket: " + err.Error())
		}
		// The paper's shortcut: if the key was broadcast before this
		// segment, its data bucket has passed — wait for the next cycle.
		if d.LastKey != treeidx.NoKey && cl.key <= d.LastKey {
			return access.Doze(end + units.Bytes64(d.NextCycle).Span())
		}
		// Route by separator keys: first entry covering the query.
		j := -1
		for e, sep := range d.Keys {
			if cl.key <= sep {
				j = e
				break
			}
		}
		if j < 0 {
			// Beyond this node's range: climb one level via the control
			// index; at the root that proves the key absent.
			if len(d.Ctrl) == 0 {
				return access.Done(false)
			}
			return access.Doze(end + units.Bytes64(d.Ctrl[len(d.Ctrl)-1]).Span())
		}
		// The node's level equals its control-entry count; the leaf index
		// level is Levels-1.
		if len(d.Ctrl) == cl.c.TreeLayout.Levels-1 {
			if d.Keys[j] != cl.key {
				return access.Done(false) // routed leaf has no exact entry
			}
			cl.phase = treeDownload
			return access.Doze(end + units.Bytes64(d.Local[j]).Span())
		}
		return access.Doze(end + units.Bytes64(d.Local[j]).Span())

	case treeDownload:
		keyOff := int(wire.HeaderSize + wire.OffsetSize)
		if !bytes.Equal(p[keyOff:keyOff+cl.c.TreeLayout.KeySize], cl.queryKey) {
			panic("airborne: downloaded the wrong data bucket")
		}
		return access.Done(true)
	}
	panic("airborne: invalid tree client phase")
}
