package btree

import (
	"math"
	"testing"
	"testing/quick"
)

func seqKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(10 + 3*i)
	}
	return keys
}

func TestBuildPaperExample(t *testing.T) {
	// The paper's Figure 1: 81 data items, fanout 3 -> 4 levels:
	// 1 root, 3 a-nodes, 9 b-nodes, 27 c-nodes.
	tr, err := Build(seqKeys(81), 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Levels != 4 {
		t.Fatalf("Levels = %d, want 4", tr.Levels)
	}
	wantCounts := []int{1, 3, 9, 27}
	for l, want := range wantCounts {
		if got := len(tr.ByLevel[l]); got != want {
			t.Fatalf("level %d has %d nodes, want %d", l, got, want)
		}
	}
	if tr.NumNodes() != 40 {
		t.Fatalf("NumNodes = %d, want 40", tr.NumNodes())
	}
	if tr.Root.DataFrom != 0 || tr.Root.DataTo != 81 {
		t.Fatalf("root covers [%d,%d), want [0,81)", tr.Root.DataFrom, tr.Root.DataTo)
	}
}

func TestBuildSingleLevel(t *testing.T) {
	tr, err := Build(seqKeys(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Levels != 1 || !tr.Root.IsLeaf() {
		t.Fatalf("3 keys with fanout 5 should be a single leaf root, got %d levels", tr.Levels)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, 3); err == nil {
		t.Fatal("empty keys accepted")
	}
	if _, err := Build(seqKeys(10), 1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := Build([]uint64{5, 5, 6}, 3); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := Build([]uint64{5, 4}, 3); err == nil {
		t.Fatal("descending keys accepted")
	}
}

func TestLookupFindsEveryKey(t *testing.T) {
	keys := seqKeys(500)
	tr, err := Build(keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		idx, ok := tr.Lookup(k)
		if !ok || idx != i {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", k, idx, ok, i)
		}
		if _, ok := tr.Lookup(k + 1); ok {
			t.Fatalf("Lookup(%d) should miss", k+1)
		}
	}
	if _, ok := tr.Lookup(0); ok {
		t.Fatal("Lookup below range should miss")
	}
	if _, ok := tr.Lookup(math.MaxUint64); ok {
		t.Fatal("Lookup above range should miss")
	}
}

func TestPathProperties(t *testing.T) {
	keys := seqKeys(200)
	tr, err := Build(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		path := tr.Path(k)
		if len(path) != tr.Levels {
			t.Fatalf("path length %d, want %d", len(path), tr.Levels)
		}
		if path[0] != tr.Root {
			t.Fatal("path must start at root")
		}
		for i := 1; i < len(path); i++ {
			if path[i].Parent != path[i-1] {
				t.Fatal("path links broken")
			}
		}
		leaf := path[len(path)-1]
		if !leaf.IsLeaf() || !leaf.Covers(tr.Keys, k) {
			t.Fatalf("leaf does not cover key %d", k)
		}
	}
}

func TestWalkPreorderIDs(t *testing.T) {
	tr, err := Build(seqKeys(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	tr.Walk(func(n *Node) {
		if n.ID != last+1 {
			t.Fatalf("walk visited ID %d after %d", n.ID, last)
		}
		last = n.ID
		// Parent precedes child in preorder.
		if n.Parent != nil && n.Parent.ID >= n.ID {
			t.Fatal("parent ID not smaller than child ID")
		}
	})
	if last+1 != tr.NumNodes() {
		t.Fatalf("walk visited %d nodes, want %d", last+1, tr.NumNodes())
	}
}

func TestAncestors(t *testing.T) {
	tr, err := Build(seqKeys(81), 3)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.ByLevel[3][13]
	anc := Ancestors(leaf)
	if len(anc) != 3 {
		t.Fatalf("leaf has %d ancestors, want 3", len(anc))
	}
	if anc[0] != tr.Root {
		t.Fatal("first ancestor must be the root")
	}
	for i := 1; i < len(anc); i++ {
		if anc[i].Parent != anc[i-1] {
			t.Fatal("ancestor chain broken")
		}
	}
	if anc[len(anc)-1] != leaf.Parent {
		t.Fatal("last ancestor must be the parent")
	}
	if len(Ancestors(tr.Root)) != 0 {
		t.Fatal("root has no ancestors")
	}
	for l, a := range anc {
		if got := AncestorAt(leaf, l); got != a {
			t.Fatalf("AncestorAt(leaf, %d) is not the level-%d ancestor", l, l)
		}
	}
	if AncestorAt(leaf, leaf.Level) != leaf {
		t.Fatal("AncestorAt at the node's own level must be the node")
	}
}

func TestSubtree(t *testing.T) {
	tr, err := Build(seqKeys(81), 3)
	if err != nil {
		t.Fatal(err)
	}
	a1 := tr.ByLevel[1][0]
	sub := Subtree(a1)
	// a-subtree: 1 + 3 + 9 nodes.
	if len(sub) != 13 {
		t.Fatalf("subtree size %d, want 13", len(sub))
	}
	if sub[0] != a1 {
		t.Fatal("subtree preorder must start at its root")
	}
	for _, n := range sub {
		if n.DataFrom < a1.DataFrom || n.DataTo > a1.DataTo {
			t.Fatal("subtree node outside the root's data range")
		}
	}
}

func TestChildForAndEntryFor(t *testing.T) {
	tr, err := Build(seqKeys(81), 3)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root
	if j := root.ChildFor(tr.Keys[0]); j != 0 {
		t.Fatalf("ChildFor(min) = %d, want 0", j)
	}
	if j := root.ChildFor(tr.Keys[80]); j != 2 {
		t.Fatalf("ChildFor(max) = %d, want 2", j)
	}
	if j := root.ChildFor(tr.Keys[80] + 1); j != -1 {
		t.Fatalf("ChildFor(beyond) = %d, want -1", j)
	}
	leaf := tr.ByLevel[3][0]
	if j := leaf.EntryFor(tr.Keys[1]); j != 1 {
		t.Fatalf("EntryFor = %d, want 1", j)
	}
	if j := leaf.EntryFor(tr.Keys[1] + 1); j != -1 {
		t.Fatalf("EntryFor(missing) = %d, want -1", j)
	}
}

func TestLevelsMatchLogFormula(t *testing.T) {
	// k = ceil(log_n(Nr)) for full-ish trees, as the analysis assumes.
	for _, c := range []struct{ nr, fanout int }{
		{81, 3}, {1000, 10}, {17500, 12}, {35000, 12}, {100, 100}, {101, 100},
	} {
		tr, err := Build(seqKeys(c.nr), c.fanout)
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Ceil(math.Log(float64(c.nr))/math.Log(float64(c.fanout)) - 1e-9))
		if want < 1 {
			want = 1
		}
		if tr.Levels != want {
			t.Errorf("Nr=%d n=%d: Levels=%d, want %d", c.nr, c.fanout, tr.Levels, want)
		}
	}
}

// Property: every key is found, every key+1 (absent by construction) is
// not, and each node's Keys are its children's max keys.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(rawN uint16, rawFanout uint8) bool {
		n := int(rawN)%2000 + 1
		fanout := int(rawFanout)%30 + 2
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(2 * (i + 1)) // even keys; odd keys absent
		}
		tr, err := Build(keys, fanout)
		if err != nil {
			return false
		}
		ok := true
		tr.Walk(func(nd *Node) {
			if len(nd.Keys) > fanout {
				ok = false
			}
			if nd.MaxKey(keys) != nd.Keys[len(nd.Keys)-1] {
				ok = false
			}
			for j, c := range nd.Children {
				if nd.Keys[j] != keys[c.DataTo-1] {
					ok = false
				}
			}
		})
		if !ok {
			return false
		}
		for i, k := range keys {
			if idx, found := tr.Lookup(k); !found || idx != i {
				return false
			}
			if _, found := tr.Lookup(k + 1); found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
