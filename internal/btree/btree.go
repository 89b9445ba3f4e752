// Package btree builds the n-ary index trees that the B+-tree-based
// wireless indexing schemes ((1,m) indexing and distributed indexing)
// broadcast. The tree is built once over the key-sorted dataset and never
// mutated — broadcast cycles are constructed offline by the server — so
// this is a bulk-loaded, read-only structure, not an insert/delete B+ tree.
//
// Levels are numbered top-down: level 0 is the root, level Levels-1 is the
// leaf index level whose entries point at individual data records. This
// matches the paper's use of k = log_n(Nr) index levels (§2.1).
package btree

import "fmt"

// Node is one index node. It becomes exactly one index bucket per
// occurrence on the broadcast channel.
type Node struct {
	// ID is the node's position in a preorder walk of the tree; unique.
	ID int
	// Level is the node's depth: 0 for the root.
	Level int
	// Parent is nil for the root.
	Parent *Node
	// Children is nil at the leaf index level.
	Children []*Node
	// Keys[j] is the largest key in child j's subtree (internal nodes) or
	// the exact data key of entry j (leaf index nodes).
	Keys []uint64
	// DataFrom and DataTo delimit the half-open range of dataset record
	// indices the node's subtree covers.
	DataFrom, DataTo int
}

// MinKey returns the smallest key in the node's subtree.
func (n *Node) MinKey(keys []uint64) uint64 { return keys[n.DataFrom] }

// MaxKey returns the largest key in the node's subtree.
func (n *Node) MaxKey(keys []uint64) uint64 { return keys[n.DataTo-1] }

// Covers reports whether key falls inside the node's subtree key range.
func (n *Node) Covers(keys []uint64, key uint64) bool {
	return key >= n.MinKey(keys) && key <= n.MaxKey(keys)
}

// IsLeaf reports whether the node is on the leaf index level.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// ChildFor returns the index of the child whose subtree may cover key: the
// first child whose separator key is >= key. It returns -1 when key exceeds
// every separator (the key is beyond the node's range). Callers that need
// an exact containment check combine this with Covers.
func (n *Node) ChildFor(key uint64) int {
	for j, maxKey := range n.Keys {
		if key <= maxKey {
			return j
		}
	}
	return -1
}

// EntryFor returns the index of the leaf entry exactly matching key, or -1
// (leaf index nodes only).
func (n *Node) EntryFor(key uint64) int {
	for j, k := range n.Keys {
		if k == key {
			return j
		}
	}
	return -1
}

// Tree is a bulk-loaded n-ary index tree.
type Tree struct {
	// Root is the top node.
	Root *Node
	// Fanout is the maximum entries per node, the paper's n.
	Fanout int
	// Levels is the number of index levels, the paper's k.
	Levels int
	// ByLevel[l] lists the nodes of level l in key order.
	ByLevel [][]*Node
	// Keys is the sorted data key slice the tree indexes.
	Keys []uint64
}

// Build bulk-loads a tree with the given fanout over sorted unique keys.
func Build(keys []uint64, fanout int) (*Tree, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("btree: no keys")
	}
	if fanout < 2 {
		return nil, fmt.Errorf("btree: fanout %d must be at least 2", fanout)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("btree: keys not strictly increasing at %d", i)
		}
	}

	// Leaf index level: one entry per data record.
	var level []*Node
	for from := 0; from < len(keys); from += fanout {
		to := from + fanout
		if to > len(keys) {
			to = len(keys)
		}
		n := &Node{Keys: keys[from:to:to], DataFrom: from, DataTo: to}
		level = append(level, n)
	}
	levels := [][]*Node{level}

	// Grow upward until a single root remains.
	for len(level) > 1 {
		var up []*Node
		for from := 0; from < len(level); from += fanout {
			to := from + fanout
			if to > len(level) {
				to = len(level)
			}
			children := level[from:to:to]
			n := &Node{
				Children: children,
				DataFrom: children[0].DataFrom,
				DataTo:   children[len(children)-1].DataTo,
			}
			n.Keys = make([]uint64, len(children))
			for j, c := range children {
				n.Keys[j] = keys[c.DataTo-1]
				c.Parent = n
			}
			up = append(up, n)
		}
		levels = append(levels, up)
		level = up
	}

	// Reverse to top-down order and assign levels, IDs.
	byLevel := make([][]*Node, len(levels))
	for i := range levels {
		byLevel[i] = levels[len(levels)-1-i]
		for _, n := range byLevel[i] {
			n.Level = i
		}
	}
	t := &Tree{
		Root:    byLevel[0][0],
		Fanout:  fanout,
		Levels:  len(byLevel),
		ByLevel: byLevel,
		Keys:    keys,
	}
	id := 0
	t.Walk(func(n *Node) {
		n.ID = id
		id++
	})
	return t, nil
}

// Walk visits every node in preorder (node before its children).
func (t *Tree) Walk(fn func(*Node)) { walk(t.Root, fn) }

func walk(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int {
	n := 0
	for _, lvl := range t.ByLevel {
		n += len(lvl)
	}
	return n
}

// Path returns the root-to-leaf node path whose leaf range covers key. The
// returned path always has length Levels; the caller checks the leaf for an
// exact match. The paper calls this the key's index path (§2.1).
func (t *Tree) Path(key uint64) []*Node {
	path := make([]*Node, 0, t.Levels)
	n := t.Root
	for {
		path = append(path, n)
		if n.IsLeaf() {
			return path
		}
		j := 0
		for j < len(n.Keys)-1 && key > n.Keys[j] {
			j++
		}
		n = n.Children[j]
	}
}

// Lookup returns the dataset record index for key, or (-1, false).
func (t *Tree) Lookup(key uint64) (int, bool) {
	path := t.Path(key)
	leaf := path[len(path)-1]
	for j, k := range leaf.Keys {
		if k == key {
			return leaf.DataFrom + j, true
		}
	}
	return -1, false
}

// Ancestors returns the node's ancestor chain from the root down to (and
// excluding) the node itself.
func Ancestors(n *Node) []*Node {
	var rev []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		rev = append(rev, p)
	}
	out := make([]*Node, len(rev))
	for i, a := range rev {
		out[len(rev)-1-i] = a
	}
	return out
}

// AncestorAt returns n's ancestor at the given level (level 0 is the
// root), or n itself when level is not above it.
func AncestorAt(n *Node, level int) *Node {
	a := n
	for a.Level > level {
		a = a.Parent
	}
	return a
}

// Subtree returns the nodes of n's subtree in preorder.
func Subtree(n *Node) []*Node {
	var out []*Node
	walk(n, func(m *Node) { out = append(out, m) })
	return out
}
