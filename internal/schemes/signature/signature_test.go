package signature

import (
	"testing"
	"testing/quick"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

func dataset(t *testing.T, n int) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Default(n))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSigGenerationDeterministic(t *testing.T) {
	a := fieldSig([]byte("hello"), 16, 8)
	b := fieldSig([]byte("hello"), 16, 8)
	c := fieldSig([]byte("world"), 16, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same field produced different signatures")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different fields produced identical signatures")
	}
}

func TestSigWeight(t *testing.T) {
	s := fieldSig([]byte("field"), 32, 20)
	if pc := s.PopCount(); pc < 15 || pc > 20 {
		t.Fatalf("weight-20 signature has %d bits set (collisions may drop a few, not this many)", pc)
	}
}

func TestCoversProperties(t *testing.T) {
	f := func(raw []byte, extra []byte) bool {
		s := fieldSig(raw, 8, 6)
		// A signature covers itself, and superimposing a second field
		// keeps covering the first.
		if !s.Covers(s) {
			return false
		}
		sup := fieldSig(raw, 8, 6)
		sup.addField(sim.FNV64a(extra), 6)
		return sup.Covers(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPackedKeyQueryMatchesQuerySig pins the allocation-free query the
// simple scheme's client and resolver share: for key widths from 4 to
// 64 bytes and signatures from 1 to 64 bytes, the bits keyQuery lists
// must be exactly the bits set in QuerySig of the encoded key, so the
// query reads the columns of the bits the signature buckets carry.
func TestPackedKeyQueryMatchesQuerySig(t *testing.T) {
	for _, width := range []int{4, 13, 25, 64} {
		cfg := datagen.Default(20)
		cfg.KeySize = width
		ds, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sigBytes := range []int{1, 3, 16, 64} {
			opts := DefaultOptions()
			opts.SigBytes, opts.BitsPerField = sigBytes, min(8, sigBytes*8)
			b, err := Build(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []uint64{0, 1, ds.KeyAt(7), ds.MissingKeyNear(19), 1 << 63} {
				got := make(Sig, sigBytes)
				for _, j := range b.keyQuery(nil, nil, key) {
					got[j/8] |= 1 << (j % 8)
				}
				want := QuerySig(ds.EncodeKey(key), opts.SigBytes, opts.BitsPerField)
				if string(got) != string(want) {
					t.Fatalf("width %d, %d-byte signature, key %d: query bits %x, want %x", width, sigBytes, key, got, want)
				}
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{SigBytes: 0, BitsPerField: 1, GroupSize: 1, GroupSigBytes: 1},
		{SigBytes: 2, BitsPerField: 0, GroupSize: 1, GroupSigBytes: 1},
		{SigBytes: 2, BitsPerField: 17, GroupSize: 1, GroupSigBytes: 1},
		{SigBytes: 2, BitsPerField: 2, GroupSize: 0, GroupSigBytes: 1},
		{SigBytes: 2, BitsPerField: 2, GroupSize: 4, GroupSigBytes: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("options %d should be invalid", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleChannelLayout(t *testing.T) {
	ds := dataset(t, 100)
	b, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ch := b.Channel()
	if ch.NumBuckets() != 200 {
		t.Fatalf("buckets = %d, want 200", ch.NumBuckets())
	}
	if ch.CountKind(wire.KindSignature) != 100 || ch.CountKind(wire.KindData) != 100 {
		t.Fatal("bucket kind counts wrong")
	}
	for i := 0; i < int(ch.NumBuckets()); i++ {
		bk := ch.Bucket(units.Index(i))
		if units.Bytes(len(bk.Encode())) != bk.Size() {
			t.Fatalf("bucket %d: encode/size mismatch", i)
		}
		wantKind := wire.KindSignature
		if i%2 == 1 {
			wantKind = wire.KindData
		}
		if bk.Kind() != wantKind {
			t.Fatalf("bucket %d kind %v, want %v", i, bk.Kind(), wantKind)
		}
	}
}

func TestSimpleFindsEveryKeyNoFalseNegatives(t *testing.T) {
	ds := dataset(t, 300)
	b, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	for i := 0; i < ds.Len(); i += 7 {
		arrival := sim.Time(rng.Int63n(int64(b.Channel().CycleLen())))
		res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(i)), arrival, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("key %d not found (false negative: superimposition broken)", ds.KeyAt(i))
		}
	}
}

func TestSimpleMissingKeyScansAllSignatures(t *testing.T) {
	ds := dataset(t, 150)
	b, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := access.Walk(b.Channel(), b.NewClient(ds.MissingKeyNear(75)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("missing key reported found")
	}
	// At least every signature bucket must have been read.
	if res.Probes < ds.Len() {
		t.Fatalf("missing key probes = %d, want >= %d", res.Probes, ds.Len())
	}
}

func TestSimpleTuningSkipsData(t *testing.T) {
	// With long signatures false drops are essentially zero, so tuning for
	// a key at position i from cycle start = (i+1) signature reads + 1 data
	// read.
	ds := dataset(t, 200)
	opts := DefaultOptions()
	opts.SigBytes = 32
	b, err := Build(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sigSize := b.Channel().SizeOf(0)
	dataSize := b.Channel().SizeOf(1)
	for _, i := range []int{0, 50, 199} {
		res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(i)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := sigSize.Times(i+1) + dataSize
		if res.Tuning != want {
			t.Fatalf("key %d tuning %d, want %d (false drop with 256-bit sigs?)", i, res.Tuning, want)
		}
	}
}

func TestShortSignaturesCauseFalseDrops(t *testing.T) {
	// 1-byte signatures with weight 4 collide massively; scanning for the
	// last record must download some wrong buckets along the way.
	ds := dataset(t, 400)
	opts := DefaultOptions()
	opts.SigBytes = 1
	opts.BitsPerField = 4
	b, err := Build(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	last := ds.Len() - 1
	res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(last)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("key not found")
	}
	// Probes = sig reads + data reads; data reads > 1 indicates false drops.
	dataReads := res.Probes - (last + 1)
	if dataReads < 2 {
		t.Fatalf("expected false drops with 8-bit signatures, got %d data reads", dataReads)
	}
}

func TestIntegratedFindsEveryKey(t *testing.T) {
	ds := dataset(t, 256)
	b, err := BuildIntegrated(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(4)
	for i := 0; i < ds.Len(); i += 5 {
		arrival := sim.Time(rng.Int63n(int64(b.Channel().CycleLen())))
		res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(i)), arrival, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("integrated: key %d not found", ds.KeyAt(i))
		}
	}
}

func TestIntegratedMissingKeyFails(t *testing.T) {
	ds := dataset(t, 256)
	b, err := BuildIntegrated(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 100, 255} {
		res, err := access.Walk(b.Channel(), b.NewClient(ds.MissingKeyNear(i)), 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatal("integrated: missing key reported found")
		}
	}
}

func TestIntegratedCycleShorterThanSimple(t *testing.T) {
	ds := dataset(t, 512)
	simple, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	integ, err := BuildIntegrated(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if integ.Channel().CycleLen() >= simple.Channel().CycleLen() {
		t.Fatalf("integrated cycle %d should be shorter than simple %d",
			integ.Channel().CycleLen(), simple.Channel().CycleLen())
	}
}

func TestMultiLevelFindsEveryKey(t *testing.T) {
	ds := dataset(t, 256)
	b, err := BuildMultiLevel(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	for i := 0; i < ds.Len(); i += 5 {
		arrival := sim.Time(rng.Int63n(int64(b.Channel().CycleLen())))
		res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(i)), arrival, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("multilevel: key %d not found", ds.KeyAt(i))
		}
	}
}

func TestMultiLevelMissingKeyFails(t *testing.T) {
	ds := dataset(t, 200)
	b, err := BuildMultiLevel(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 99, 199} {
		res, err := access.Walk(b.Channel(), b.NewClient(ds.MissingKeyNear(i)), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatal("multilevel: missing key reported found")
		}
	}
}

func TestMultiLevelTuningBeatsSimpleOnAverage(t *testing.T) {
	// Group skipping should reduce tuning time versus the simple scheme
	// for random present keys.
	ds := dataset(t, 600)
	simple, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ml, err := BuildMultiLevel(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(21)
	var sumSimple, sumML units.ByteCount
	const n = 300
	for i := 0; i < n; i++ {
		key := ds.KeyAt(rng.Intn(ds.Len()))
		a1 := sim.Time(rng.Int63n(int64(simple.Channel().CycleLen())))
		a2 := sim.Time(rng.Int63n(int64(ml.Channel().CycleLen())))
		r1, err := access.Walk(simple.Channel(), simple.NewClient(key), a1, 0)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := access.Walk(ml.Channel(), ml.NewClient(key), a2, 0)
		if err != nil {
			t.Fatal(err)
		}
		sumSimple += r1.Tuning
		sumML += r2.Tuning
	}
	if sumML >= sumSimple {
		t.Fatalf("multi-level mean tuning %d should beat simple %d", sumML.Div(units.Bytes(n)), sumSimple.Div(units.Bytes(n)))
	}
}

func TestBroadcastInterfaces(t *testing.T) {
	ds := dataset(t, 64)
	var bs []access.Broadcast
	b1, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BuildIntegrated(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b3, err := BuildMultiLevel(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bs = append(bs, b1, b2, b3)
	for _, b := range bs {
		if b.Name() == "" || b.Channel() == nil {
			t.Fatal("broadcast interface incomplete")
		}
		if !b.Contains(ds.KeyAt(5)) || b.Contains(ds.MissingKeyNear(5)) {
			t.Fatalf("%s: Contains wrong", b.Name())
		}
		if b.Params()["cycle_bytes"] != float64(b.Channel().CycleLen()) {
			t.Fatalf("%s: params wrong", b.Name())
		}
	}
}

// TestAddRecordMatchesFieldSignatures pins the allocation-free record
// signature to its definition: the OR of one weight-bit field signature
// per field — the encoded key, then every attribute — and SetQueryKey
// over a dirty signature to a fresh QuerySig.
func TestAddRecordMatchesFieldSignatures(t *testing.T) {
	ds := dataset(t, 120)
	keySize := ds.Config().KeySize
	for _, nbytes := range []int{1, 16, 32} {
		weight := min(8, nbytes*8)
		var kbuf []byte
		for i := 0; i < ds.Len(); i++ {
			rec := ds.Record(i)
			fields := [][]byte{ds.EncodeKey(rec.Key)}
			for _, a := range rec.Attrs {
				fields = append(fields, []byte(a))
			}
			want := make(Sig, nbytes)
			for _, f := range fields {
				state, bits := sim.FNV64a(f), uint64(nbytes*8)
				for j := 0; j < weight; j++ {
					pos := bitPos(&state, bits)
					want[pos/8] |= 1 << (pos % 8)
				}
			}
			got := make(Sig, nbytes)
			kbuf = got.AddRecord(rec, keySize, weight, kbuf)
			if string(got) != string(want) {
				t.Fatalf("record %d, %d bytes: AddRecord %x, field signatures %x", i, nbytes, got, want)
			}
			kbuf = got.SetQueryKey(rec.Key, keySize, weight, kbuf)
			if q := QuerySig(fields[0], nbytes, weight); string(got) != string(q) {
				t.Fatalf("record %d, %d bytes: SetQueryKey %x, QuerySig %x", i, nbytes, got, q)
			}
		}
	}
}
