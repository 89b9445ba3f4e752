package dist

import (
	"sort"
	"testing"

	"github.com/airindex/airindex/internal/btree"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/treeidx"
	"github.com/airindex/airindex/internal/units"
)

// nextInstanceAfter reproduces the expected "next occurrence strictly
// after pos, wrapping" rule from a node's sorted instance list.
func nextInstanceAfter(instances []int, pos int) int {
	i := sort.SearchInts(instances, pos+1)
	if i == len(instances) {
		return instances[0]
	}
	return instances[i]
}

// TestPointerGraphInvariants verifies, across several geometries, the
// wiring the client protocol relies on: every control pointer targets the
// next occurrence of the right ancestor, every local pointer the next
// occurrence of the right child (or the unique data bucket of the entry),
// and every next-segment pointer the first index segment strictly after
// the bucket.
func TestPointerGraphInvariants(t *testing.T) {
	for _, n := range []int{50, 333, 1200} {
		for _, r := range []int{-1, 0, 1} {
			ds, err := datagen.Generate(datagen.Default(n))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build(ds, Options{R: r})
			if err != nil {
				t.Fatalf("n=%d r=%d: %v", n, r, err)
			}
			checkPointers(t, ds, b)
		}
	}
}

func checkPointers(t *testing.T, ds *datagen.Dataset, b *Broadcast) {
	t.Helper()
	ch := b.Channel()
	segSet := make(map[int]bool, len(b.segStarts))
	for _, s := range b.segStarts {
		segSet[s] = true
	}
	for i := 0; i < int(ch.NumBuckets()); i++ {
		// Next-segment pointers: a segment start strictly after i (or the
		// wrap to segment 0).
		ns := b.nextSeg[i]
		if !segSet[ns] {
			t.Fatalf("bucket %d nextSeg %d is not a segment start", i, ns)
		}
		wantNS := b.segStarts[0]
		for _, s := range b.segStarts {
			if s > i {
				wantNS = s
				break
			}
		}
		if ns != wantNS {
			t.Fatalf("bucket %d nextSeg %d, want %d", i, ns, wantNS)
		}

		ib, ok := ch.Bucket(units.Index(i)).(*treeidx.IndexBucket)
		if !ok {
			continue
		}
		node := ib.Node
		// Control pointers: one per ancestor level, each the next
		// occurrence of exactly that ancestor.
		if len(ib.Ctrl) != node.Level {
			t.Fatalf("bucket %d has %d ctrl pointers for level %d", i, len(ib.Ctrl), node.Level)
		}
		for l, target := range ib.Ctrl {
			anc := btree.AncestorAt(node, l)
			if b.nodeOf[target] != anc {
				t.Fatalf("bucket %d ctrl[%d] -> bucket %d holds the wrong node", i, l, target)
			}
			if want := nextInstanceAfter(b.instances[anc], i); target != want {
				t.Fatalf("bucket %d ctrl[%d] = %d, want next occurrence %d", i, l, target, want)
			}
		}
		// Local pointers.
		if node.IsLeaf() {
			if len(ib.Local) != len(node.Keys) {
				t.Fatalf("leaf bucket %d has %d locals for %d entries", i, len(ib.Local), len(node.Keys))
			}
			for e, target := range ib.Local {
				if b.recOf[target] != node.DataFrom+e {
					t.Fatalf("leaf bucket %d entry %d points at record %d, want %d",
						i, e, b.recOf[target], node.DataFrom+e)
				}
			}
		} else {
			if len(ib.Local) != len(node.Children) {
				t.Fatalf("bucket %d has %d locals for %d children", i, len(ib.Local), len(node.Children))
			}
			for j, target := range ib.Local {
				child := node.Children[j]
				if b.nodeOf[target] != child {
					t.Fatalf("bucket %d local[%d] holds the wrong child", i, j)
				}
				if want := nextInstanceAfter(b.instances[child], i); target != want {
					t.Fatalf("bucket %d local[%d] = %d, want next occurrence %d", i, j, target, want)
				}
			}
		}
	}
}

// TestLastKeyFieldMonotone checks the "last broadcast key" bucket field:
// within one cycle it must equal the key of the most recent data bucket
// before the index bucket (NoKey before any data).
func TestLastKeyFieldMonotone(t *testing.T) {
	ds, err := datagen.Generate(datagen.Default(400))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ch := b.Channel()
	last := treeidx.NoKey
	for i := 0; i < int(ch.NumBuckets()); i++ {
		if ib, ok := ch.Bucket(units.Index(i)).(*treeidx.IndexBucket); ok {
			if ib.LastKey != last {
				t.Fatalf("bucket %d LastKey %d, want %d", i, ib.LastKey, last)
			}
			continue
		}
		last = ds.KeyAt(b.recOf[i])
	}
}

// TestEveryRecordExactlyOneDataBucket pins the data side of the cycle.
func TestEveryRecordExactlyOneDataBucket(t *testing.T) {
	ds, err := datagen.Generate(datagen.Default(777))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < int(b.Channel().NumBuckets()); i++ {
		if r := b.recOf[i]; r >= 0 {
			seen[r]++
		}
	}
	if len(seen) != ds.Len() {
		t.Fatalf("%d records have data buckets, want %d", len(seen), ds.Len())
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("record %d broadcast %d times", r, c)
		}
	}
}
