package onem

import (
	"testing"

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

func build(t *testing.T, n, m int) (*datagen.Dataset, *Broadcast) {
	t.Helper()
	ds := dataset(t, n)
	b, err := Build(ds, Options{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

func TestChannelStructure(t *testing.T) {
	ds, b := build(t, 600, 4)
	ch := b.Channel()
	treeNodes := b.Tree().NumNodes()
	if got := ch.CountKind(wire.KindIndex); int(got) != 4*treeNodes {
		t.Fatalf("index buckets = %d, want %d (4 full copies)", got, 4*treeNodes)
	}
	if got := ch.CountKind(wire.KindData); int(got) != ds.Len() {
		t.Fatalf("data buckets = %d, want %d", got, ds.Len())
	}
	// Each copy starts with the root.
	for s, base := range b.copyBase {
		if b.nodeOf[base] != b.Tree().Root {
			t.Fatalf("copy %d does not start with the root", s)
		}
	}
	// Uniform bucket size, encode/size agreement.
	for i := 0; i < int(ch.NumBuckets()); i++ {
		bk := ch.Bucket(units.Index(i))
		if bk.Size() != b.Layout().BucketSize || units.Bytes(len(bk.Encode())) != bk.Size() {
			t.Fatalf("bucket %d size/encode mismatch", i)
		}
	}
}

func TestFindsEveryKey(t *testing.T) {
	ds, b := build(t, 500, 3)
	rng := sim.NewRNG(17)
	for i := 0; i < ds.Len(); i++ {
		arrival := sim.Time(rng.Int63n(int64(b.Channel().CycleLen())))
		res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(i)), arrival, 0)
		if err != nil {
			t.Fatalf("key %d: %v", ds.KeyAt(i), err)
		}
		if !res.Found {
			t.Fatalf("key %d not found", ds.KeyAt(i))
		}
	}
}

func TestMissingKeysFailFast(t *testing.T) {
	ds, b := build(t, 500, 3)
	k := b.Tree().Levels
	rng := sim.NewRNG(18)
	for i := 0; i < ds.Len(); i += 17 {
		arrival := sim.Time(rng.Int63n(int64(b.Channel().CycleLen())))
		res, err := access.Walk(b.Channel(), b.NewClient(ds.MissingKeyNear(i)), arrival, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("missing key near %d reported found", i)
		}
		// Absence is determined from one full tree copy: at most
		// 1 (first probe) + k (descent) bucket reads.
		if res.Probes > 1+k {
			t.Fatalf("missing key took %d probes, want <= %d", res.Probes, 1+k)
		}
	}
}

func TestTuningIsTreeDepthBound(t *testing.T) {
	ds, b := build(t, 2000, 4)
	k := b.Tree().Levels
	rng := sim.NewRNG(19)
	for i := 0; i < 300; i++ {
		key := ds.KeyAt(rng.Intn(ds.Len()))
		arrival := sim.Time(rng.Int63n(int64(b.Channel().CycleLen())))
		res, err := access.Walk(b.Channel(), b.NewClient(key), arrival, 0)
		if err != nil {
			t.Fatal(err)
		}
		// 1 first probe + k tree levels + 1 data bucket.
		if res.Probes > k+2 {
			t.Fatalf("present key took %d probes, want <= %d", res.Probes, k+2)
		}
		if res.Tuning != b.Layout().BucketSize.Times(res.Probes) {
			t.Fatal("tuning bytes must equal probes x uniform bucket size")
		}
	}
}

func TestOptimalM(t *testing.T) {
	// The optimum balances segment-probe wait against cycle growth:
	// m* ~ sqrt(nr/treeNodes).
	for _, c := range []struct{ nr, nodes int }{
		{1000, 100}, {10000, 900}, {35000, 3200},
	} {
		m := OptimalM(c.nr, c.nodes)
		if m < 1 {
			t.Fatalf("OptimalM(%d,%d) = %d", c.nr, c.nodes, m)
		}
		// Check it is at least as good as its neighbours.
		cost := func(m int) float64 {
			return 0.5 + (float64(c.nr)/float64(m)+float64(c.nodes))/2 + float64(c.nr+m*c.nodes)/2
		}
		if m > 1 && cost(m-1) < cost(m) {
			t.Fatalf("OptimalM(%d,%d)=%d but m-1 is cheaper", c.nr, c.nodes, m)
		}
		if cost(m+1) < cost(m) {
			t.Fatalf("OptimalM(%d,%d)=%d but m+1 is cheaper", c.nr, c.nodes, m)
		}
	}
}

func TestAutoMUsed(t *testing.T) {
	ds := dataset(t, 800)
	b, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := OptimalM(ds.Len(), b.Tree().NumNodes())
	if b.M() != want {
		t.Fatalf("auto m = %d, want %d", b.M(), want)
	}
}

func TestInvalidM(t *testing.T) {
	ds := dataset(t, 100)
	if _, err := Build(ds, Options{M: -3}); err == nil {
		t.Fatal("negative m accepted")
	}
	if _, err := Build(ds, Options{M: 101}); err == nil {
		t.Fatal("m > record count accepted")
	}
}

func TestMEqualsOneSingleCopy(t *testing.T) {
	ds, b := build(t, 300, 1)
	if got := b.Channel().CountKind(wire.KindIndex); int(got) != b.Tree().NumNodes() {
		t.Fatalf("m=1: index buckets %d, want %d", got, b.Tree().NumNodes())
	}
	res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(299)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("key not found with m=1")
	}
}

func TestAccessFromEveryArrivalBucket(t *testing.T) {
	ds, b := build(t, 120, 3)
	for p := 0; p < int(b.Channel().NumBuckets()); p += 3 {
		arrival := b.Channel().StartInCycle(units.Index(p)).At(2)
		for _, i := range []int{0, 60, 119} {
			res, err := access.Walk(b.Channel(), b.NewClient(ds.KeyAt(i)), arrival, 0)
			if err != nil {
				t.Fatalf("arrival bucket %d key %d: %v", p, i, err)
			}
			if !res.Found {
				t.Fatalf("key %d not found from bucket %d", ds.KeyAt(i), p)
			}
			if res.Access > 3*b.Channel().CycleLen() {
				t.Fatalf("access %d exceeds 3 cycles", res.Access)
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, m := range []int{0, 1, 100} {
		if err := (Options{M: m}).Validate(); err != nil {
			t.Errorf("M=%d rejected: %v", m, err)
		}
	}
	if err := (Options{M: -1}).Validate(); err == nil {
		t.Error("M=-1 accepted")
	}
}
