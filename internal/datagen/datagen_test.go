package datagen

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGenerateBasics(t *testing.T) {
	cfg := Default(1000)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		r := ds.Record(i)
		if len(r.Attrs) != cfg.NumAttributes {
			t.Fatalf("record %d has %d attrs, want %d", i, len(r.Attrs), cfg.NumAttributes)
		}
		total := cfg.KeySize
		for _, a := range r.Attrs {
			total += len(a)
		}
		if total != cfg.RecordSize {
			t.Fatalf("record %d payload %d bytes, want %d", i, total, cfg.RecordSize)
		}
	}
}

func TestKeysStrictlyIncreasingWithGap(t *testing.T) {
	ds, err := Generate(Default(5000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < ds.Len(); i++ {
		if ds.KeyAt(i) < ds.KeyAt(i-1)+2 {
			t.Fatalf("keys %d and %d too close: %d, %d", i-1, i, ds.KeyAt(i-1), ds.KeyAt(i))
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate(Default(500))
	b, _ := Generate(Default(500))
	for i := 0; i < a.Len(); i++ {
		if a.KeyAt(i) != b.KeyAt(i) || a.Record(i).Attrs[0] != b.Record(i).Attrs[0] {
			t.Fatal("same config produced different datasets")
		}
	}
	cfg := Default(500)
	cfg.Seed = 2
	c, _ := Generate(cfg)
	if a.KeyAt(0) == c.KeyAt(0) && a.KeyAt(100) == c.KeyAt(100) {
		t.Fatal("different seeds produced identical key streams")
	}
}

func TestFind(t *testing.T) {
	ds, err := Generate(Default(2000))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 999, 1998, 1999} {
		idx, ok := ds.Find(ds.KeyAt(i))
		if !ok || idx != i {
			t.Fatalf("Find(KeyAt(%d)) = %d, %v", i, idx, ok)
		}
	}
	for _, i := range []int{0, 500, 1999} {
		if _, ok := ds.Find(ds.MissingKeyNear(i)); ok {
			t.Fatalf("MissingKeyNear(%d) found in dataset", i)
		}
	}
	if _, ok := ds.Find(0); ok {
		t.Fatal("Find(0) should fail")
	}
	if _, ok := ds.Find(ds.MaxKey() + 100); ok {
		t.Fatal("Find beyond max should fail")
	}
}

func TestEncodeKeyOrderAndRoundTrip(t *testing.T) {
	ds, err := Generate(Default(300))
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for i := 0; i < ds.Len(); i++ {
		enc := ds.EncodeKey(ds.KeyAt(i))
		if len(enc) != 25 {
			t.Fatalf("encoded key width %d, want 25", len(enc))
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("encoded key order broken at %d", i)
		}
		dec, err := DecodeKey(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec != ds.KeyAt(i) {
			t.Fatalf("round trip %d != %d", dec, ds.KeyAt(i))
		}
		prev = enc
	}
}

func TestQuickKeyEncodingOrder(t *testing.T) {
	f := func(a, b uint64, w uint8) bool {
		width := 13 + int(w)%12 // 13..24, wide enough for any uint64
		ea := EncodeKeyWidth(a, width)
		eb := EncodeKeyWidth(b, width)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyRoundTrip(t *testing.T) {
	f := func(k uint64) bool {
		enc := EncodeKeyWidth(k, 16)
		dec, err := DecodeKey(enc)
		return err == nil && dec == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeyRejectsGarbage(t *testing.T) {
	if _, err := DecodeKey([]byte("ABC!")); err == nil {
		t.Fatal("DecodeKey accepted invalid bytes")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumRecords: 0, RecordSize: 500, KeySize: 25, NumAttributes: 1},
		{NumRecords: 10, RecordSize: 500, KeySize: 3, NumAttributes: 1},
		{NumRecords: 10, RecordSize: 20, KeySize: 25, NumAttributes: 1},
		{NumRecords: 10, RecordSize: 500, KeySize: 25, NumAttributes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("Generate accepted invalid config %d", i)
		}
	}
	if err := Default(100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRatioConfigs(t *testing.T) {
	// Record/key ratio sweep configurations (paper §5.2) must all generate.
	for _, ratio := range []int{5, 10, 20, 50, 100} {
		cfg := Default(200)
		cfg.KeySize = cfg.RecordSize / ratio
		if cfg.KeySize < 4 {
			cfg.KeySize = 4
		}
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatalf("ratio %d: %v", ratio, err)
		}
		if got := len(ds.EncodeKey(ds.KeyAt(0))); got != cfg.KeySize {
			t.Fatalf("ratio %d: key width %d, want %d", ratio, got, cfg.KeySize)
		}
	}
}

// BenchmarkGenerate times one paper-scale half dictionary, the size each
// cohort-clean scheme generates.
func BenchmarkGenerate(b *testing.B) {
	cfg := Default(17500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
