package signature

import (
	"testing"

	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// TestCountCoversMatchesWireSigs is the bit-sliced index's independent
// oracle. The client and Resolve both read the signature columns, so
// FuzzResolverMatchesWalk cannot catch a transposition fault they share;
// here countCovers and covers are held to Sig.Covers on the signature
// bytes decoded from the sigBucket frames. Signature lengths include
// non-multiples of 8 bytes, weights are random, the record counts
// straddle the 64-record word edges, and ranges wrap at the cycle's end.
func TestCountCoversMatchesWireSigs(t *testing.T) {
	rng := sim.NewRNG(19)
	for _, n := range []int{1, 63, 64, 65, 129} {
		ds := dataset(t, n)
		for trial := 0; trial < 16; trial++ {
			opts := DefaultOptions()
			opts.SigBytes = 1 + rng.Intn(19)
			opts.BitsPerField = 1 + rng.Intn(min(opts.SigBytes*8, 24))
			b, err := Build(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			sigs := make([]Sig, n)
			for i := range sigs {
				r := wire.NewReader(b.Channel().Bucket(units.Index(2 * i)).Encode())
				if h := r.Header(); h.Kind != wire.KindSignature {
					t.Fatalf("bucket %d is %v, want a signature", 2*i, h.Kind)
				}
				sigs[i] = Sig(r.Raw(units.Bytes(opts.SigBytes)))
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
			}
			for probe := 0; probe < 24; probe++ {
				key := ds.KeyAt(rng.Intn(n))
				if probe%2 == 1 {
					key = ds.MissingKeyNear(rng.Intn(n))
				}
				qsig := QuerySig(ds.EncodeKey(key), opts.SigBytes, opts.BitsPerField)
				q := b.keyQuery(nil, nil, key)
				r, k := rng.Intn(n), 1+rng.Intn(n)
				if probe < 2 {
					// The whole cycle, and the one record before the wrap.
					r, k = probe*(n-1), n-probe*(n-1)
				}
				want := 0
				for i := 0; i < k; i++ {
					rec := (r + i) % n
					c := sigs[rec].Covers(qsig)
					if c {
						want++
					}
					if b.covers(q, rec) != c {
						t.Fatalf("n=%d %+v key %d: covers(record %d) = %v, wire signature says %v", n, opts, key, rec, !c, c)
					}
				}
				if got := b.countCovers(q, r, k); got != want {
					t.Fatalf("n=%d %+v key %d: countCovers(r=%d, k=%d) = %d, wire signatures give %d", n, opts, key, r, k, got, want)
				}
			}
		}
	}
}
