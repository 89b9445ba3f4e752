package cohort

import (
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/bdisk"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/sim"
)

// FuzzResolverMatchesWalk holds every access.Resolver to its
// bit-identity obligation. Over flat, broadcast disks and simple
// signature (scheme mod 3), a record count up to 300 (at least one per
// disk for broadcast disks' three), a signature
// geometry down to 1-byte signatures with 1 bit per field, a present or
// missing key and an arrival anywhere in the first four cycles, Resolve
// must return exactly what access.Walk of a fresh client returns.
func FuzzResolverMatchesWalk(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(15), uint8(7), uint16(0), false, uint64(0))
	f.Add(uint8(1), uint16(99), uint8(15), uint8(7), uint16(41), true, uint64(123457))
	f.Add(uint8(2), uint16(0), uint8(0), uint8(0), uint16(0), true, uint64(530))
	f.Add(uint8(2), uint16(229), uint8(0), uint8(0), uint16(17), false, uint64(98765))
	f.Add(uint8(2), uint16(299), uint8(15), uint8(7), uint16(250), true, uint64(1<<40))
	f.Fuzz(func(t *testing.T, scheme uint8, records uint16, sigBytes, bits uint8, rec uint16, missing bool, arrival uint64) {
		n := int(records)%300 + 1
		if scheme%3 == 1 {
			n = max(n, len(bdisk.DefaultOptions().Fractions))
		}
		ds, err := datagen.Generate(datagen.Default(n))
		if err != nil {
			t.Fatal(err)
		}
		var bc access.Broadcast
		switch scheme % 3 {
		case 0:
			bc, err = flat.Build(ds)
		case 1:
			bc, err = bdisk.Build(ds, bdisk.DefaultOptions())
		default:
			opts := signature.DefaultOptions()
			opts.SigBytes = int(sigBytes)%32 + 1
			opts.BitsPerField = int(bits)%(opts.SigBytes*8) + 1
			bc, err = signature.Build(ds, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		key := ds.KeyAt(int(rec) % n)
		if missing {
			key = ds.MissingKeyNear(int(rec) % n)
		}
		at := sim.Time(arrival % (4 * uint64(bc.Channel().CycleLen())))
		want, err := access.Walk(bc.Channel(), bc.NewClient(key), at, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := bc.(access.Resolver).Resolve(key, at)
		if !ok {
			t.Fatalf("%s declined key %d at %d", bc.Name(), key, at)
		}
		if got != want {
			t.Fatalf("%s, %d records, key %d at %d: Resolve %+v, Walk %+v", bc.Name(), n, key, at, got, want)
		}
	})
}
