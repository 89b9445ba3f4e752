// Package signature implements signature indexing for wireless broadcast
// (paper §2.3, after Lee & Lee [8]).
//
// A signature is an abstraction of a record: every field (the key and each
// attribute) is hashed into a sparse random bit string and the strings are
// superimposed (bitwise OR) into the record signature. A query forms its
// own signature from the search key; any record whose signature covers the
// query signature *possibly* matches and must be downloaded to check — a
// covering signature with a non-matching key is a false drop.
//
// Three schemes are provided: the simple scheme the paper evaluates (one
// signature bucket before every data bucket), plus the integrated and
// multi-level schemes of [8] as extensions (group signatures that let
// clients skip whole record groups).
package signature

import (
	"fmt"

	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
)

// Options configures signature generation and the group-based extensions.
type Options struct {
	// SigBytes is the record signature length in bytes (the paper's
	// tradeoff knob: shorter signatures shrink the cycle but raise the
	// false-drop rate).
	SigBytes int
	// BitsPerField is how many bits each hashed field sets in the
	// signature (the weight of the superimposed code).
	BitsPerField int
	// GroupSize is the number of records per group for the integrated and
	// multi-level schemes.
	GroupSize int
	// GroupSigBytes is the integrated (group) signature length in bytes.
	GroupSigBytes int
}

// DefaultOptions returns sensible defaults: 16-byte record signatures with
// weight 8, and 16-record groups with 32-byte integrated signatures.
func DefaultOptions() Options {
	return Options{SigBytes: 16, BitsPerField: 8, GroupSize: 16, GroupSigBytes: 32}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	switch {
	case o.SigBytes < 1:
		return fmt.Errorf("signature: SigBytes %d must be positive", o.SigBytes)
	case o.BitsPerField < 1:
		return fmt.Errorf("signature: BitsPerField %d must be positive", o.BitsPerField)
	case o.BitsPerField > o.SigBytes*8:
		return fmt.Errorf("signature: BitsPerField %d exceeds signature bits %d", o.BitsPerField, o.SigBytes*8)
	case o.GroupSize < 1:
		return fmt.Errorf("signature: GroupSize %d must be positive", o.GroupSize)
	case o.GroupSigBytes < 1:
		return fmt.Errorf("signature: GroupSigBytes %d must be positive", o.GroupSigBytes)
	}
	return nil
}

// Sig is a fixed-length superimposed-code signature.
type Sig []byte

// fieldSig sets weight pseudo-random bits derived from the field bytes in
// an nbytes-long signature. The bit positions come from a splitmix64
// sequence seeded by the FNV-64a hash of the field (sim.FNV64a, bitPos),
// so generation is deterministic and well spread.
func fieldSig(field []byte, nbytes, weight int) Sig {
	s := make(Sig, nbytes)
	s.addField(sim.FNV64a(field), weight)
	return s
}

// addField ORs the weight bits of the field with hash h into s —
// fieldSig's bits, without a signature per field.
//
//airlint:hotpath
func (s Sig) addField(h uint64, weight int) {
	bits := uint64(len(s) * 8)
	for i := 0; i < weight; i++ {
		pos := bitPos(&h, bits)
		s[pos/8] |= 1 << (pos % 8)
	}
}

// bitPos advances a field's splitmix64 state and returns the next bit
// position it sets in a signature of the given bit length.
func bitPos(state *uint64, bits uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z % bits
}

// fieldBits appends the weight bit positions the field with hash h sets
// in an nbytes-long signature — fieldSig's bits, in the same order — to q.
func fieldBits(q []int, h uint64, nbytes, weight int) []int {
	bits := uint64(nbytes * 8)
	for i := 0; i < weight; i++ {
		q = append(q, int(bitPos(&h, bits)))
	}
	return q
}

// Covers reports whether every bit of q is also set in s — the signature
// match test. A covering record signature means "possibly the requested
// record".
func (s Sig) Covers(q Sig) bool {
	for i := range s {
		if s[i]&q[i] != q[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits, used by tests and the
// false-drop estimate.
func (s Sig) PopCount() int {
	n := 0
	for _, b := range s {
		for b != 0 {
			n += int(b & 1)
			b >>= 1
		}
	}
	return n
}

// AddRecord superimposes the signature of rec onto s: one field
// signature for its key encoded at keySize bytes, then one per attribute.
// kbuf is scratch for the key encoding; AddRecord returns it, grown if it
// had to be, for the next call.
func (s Sig) AddRecord(rec datagen.Record, keySize, weight int, kbuf []byte) []byte {
	kbuf = datagen.AppendKey(kbuf[:0], rec.Key, keySize)
	s.addField(sim.FNV64a(kbuf), weight)
	for _, a := range rec.Attrs {
		s.addField(sim.FNV64a(a), weight)
	}
	return kbuf
}

// QuerySig builds the signature a client generates for a key-equality
// query: the hash of the key field alone.
func QuerySig(keyField []byte, nbytes, weight int) Sig {
	return fieldSig(keyField, nbytes, weight)
}

// SetQueryKey overwrites s in place with the query signature of key —
// QuerySig of its keySize-byte encoding — so a rewound client reuses its
// query signature. kbuf is scratch for the key encoding, as in AddRecord.
//
//airlint:hotpath
func (s Sig) SetQueryKey(key uint64, keySize, weight int, kbuf []byte) []byte {
	kbuf = datagen.AppendKey(kbuf[:0], key, keySize)
	clear(s)
	s.addField(sim.FNV64a(kbuf), weight)
	return kbuf
}
