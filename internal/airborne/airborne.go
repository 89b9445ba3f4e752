// Package airborne implements receiver-side clients that operate on the
// encoded broadcast alone: every protocol decision is computed from the
// bytes of the buckets they read — header sequence numbers, control parts,
// time-offset deltas — plus the published service contract (bucket
// geometry, hash function, signature parameters). Nothing references the
// server's in-memory structures.
//
// The scheme packages' own clients consult build-time metadata, which is
// faster for large simulation campaigns; the airborne clients exist to
// prove the broadcast formats are genuinely self-describing. The
// differential tests in this package drive both client families over the
// same channels and compare outcomes.
package airborne

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/channel"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/schemes/treeidx"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Contract is the service contract a mobile client is assumed to know
// before tuning in: the data geometry and the scheme's published
// parameters. Everything else comes off the air.
type Contract struct {
	// RecordSize and KeySize fix the data bucket geometry, and NumRecords
	// is the announced database size (used by the serial protocols to
	// conclude a search failed after one full pass).
	RecordSize, KeySize, NumRecords int

	// TreeLayout is the index bucket geometry for the tree schemes.
	TreeLayout treeidx.Layout

	// HashPositions is Na, the hashing scheme's published directory size
	// (the paper broadcasts the hashing function in every control part).
	HashPositions int

	// SigBytes and BitsPerField parameterize the signature scheme.
	SigBytes, BitsPerField int
}

// Source provides the encoded form of broadcast buckets to the
// byte-driven clients. Of returns the bytes of the bucket the walker
// just read and charged — implementations must only ever be asked for
// that bucket (the byteclock analyzer enforces the call discipline).
// Bytes is the simulator-side implementation, decoding from the local
// channel image; internal/aircast supplies a live implementation whose
// bytes come off the wire, so the same client state machines ride both
// the byte-clock simulator and a real transport unchanged.
type Source interface {
	// Of returns bucket i's encoded bytes.
	Of(i units.BucketIndex) []byte
	// NumBuckets returns the cycle's bucket count.
	NumBuckets() units.BucketCount
}

// Bytes provides the encoded form of broadcast buckets, memoized so
// differential sweeps do not re-encode per probe.
type Bytes struct {
	ch    *channel.Channel
	cache [][]byte
}

// NewBytes wraps a channel with an encode cache.
func NewBytes(ch *channel.Channel) *Bytes {
	return &Bytes{ch: ch, cache: make([][]byte, ch.NumBuckets())}
}

// Of returns bucket i's encoded bytes.
func (e *Bytes) Of(i units.BucketIndex) []byte {
	if e.cache[i] == nil {
		e.cache[i] = e.ch.Bucket(i).Encode() //airlint:allow byteclock memoized decode of the bucket the caller was just charged for via OnBucket
	}
	return e.cache[i]
}

// NumBuckets returns the cycle's bucket count.
func (e *Bytes) NumBuckets() units.BucketCount { return e.ch.NumBuckets() }

// clients is the byte-driven client table: the schemes whose broadcast
// formats a receiver can walk from the bytes alone.
var clients = []struct {
	scheme string
	new    func(b Source, c Contract, key uint64) access.Client
}{
	{flat.Name, func(b Source, c Contract, key uint64) access.Client { return newFlatClient(b, c, key) }},
	{onem.Name, func(b Source, c Contract, key uint64) access.Client { return newTreeClient(b, c, key) }},
	{dist.Name, func(b Source, c Contract, key uint64) access.Client { return newTreeClient(b, c, key) }},
	{hashing.Name, func(b Source, c Contract, key uint64) access.Client { return newHashClient(b, c, key) }},
	{signature.Name, func(b Source, c Contract, key uint64) access.Client { return newSigClient(b, c, key) }},
}

// Schemes lists the schemes NewClient has a byte-driven client for.
func Schemes() []string {
	names := make([]string, len(clients))
	for i, c := range clients {
		names[i] = c.scheme
	}
	return names
}

// NewClient returns a byte-driven client for the named scheme, one of
// Schemes.
func NewClient(scheme string, bytes Source, c Contract, key uint64) (access.Client, error) {
	for _, cl := range clients {
		if cl.scheme == scheme {
			return cl.new(bytes, c, key), nil
		}
	}
	return nil, fmt.Errorf("airborne: no byte-driven client for scheme %q", scheme)
}

// ContractFor returns a built broadcast's service contract: the data
// geometry, and the tree layout, Na and signature parameters it has.
func ContractFor(data datagen.Config, bc access.Broadcast) Contract {
	p := bc.Params()
	c := Contract{
		RecordSize:    data.RecordSize,
		KeySize:       data.KeySize,
		NumRecords:    data.NumRecords,
		HashPositions: int(p["Na"]),
		SigBytes:      int(p["sig_bytes"]),
		BitsPerField:  int(p["bits_per_field"]),
	}
	if t, ok := bc.(interface{ Layout() treeidx.Layout }); ok {
		c.TreeLayout = t.Layout()
	}
	return c
}

// header decodes the common bucket prefix.
func header(p []byte) wire.Header {
	r := wire.NewReader(p)
	return r.Header()
}
