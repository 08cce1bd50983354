package btree

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"iomodels/internal/kv"
)

// Direct unit tests of the borrow rotations: fixSparseChild prefers merging
// and right-siblings, so the left-borrow and internal-rotation paths need
// crafted node shapes.

func borrowFixture(t *testing.T) *Tree {
	t.Helper()
	return newTestTree(t, 1024, 1<<20)
}

func leafWith(ids ...int) *node {
	n := newLeaf(1024)
	for _, id := range ids {
		insert(n, key(id), bytes.Repeat([]byte{byte(id)}, 60))
	}
	return n
}

func internalWith(children []int64, pivotIDs ...int) *node {
	var pivots [][]byte
	for _, id := range pivotIDs {
		pivots = append(pivots, key(id))
	}
	return newInternal(pivots, children)
}

// columnsHold fails t unless each node's head column holds the heads of
// its keys: a leaf's directory, an internal node's pivots.
func columnsHold(t *testing.T, nodes ...*node) {
	t.Helper()
	for _, n := range nodes {
		want := make([]uint64, 0, n.count)
		for i := 0; i < n.count; i++ {
			want = append(want, kv.Head(n.key(i)))
		}
		got := n.heads
		if !n.leaf {
			want, got = want[:0], n.pivotHeads
			for _, p := range n.pivots {
				want = append(want, kv.Head(p))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("head column %x, keys' heads %x", got, want)
		}
	}
}

func TestBorrowFromLeftLeaf(t *testing.T) {
	tree := borrowFixture(t)
	sib := leafWith(10, 11, 12, 13, 14, 15)
	child := leafWith(20)
	parent := internalWith([]int64{0, 1024}, 20)

	tree.borrowFromLeft(parent, 1, child, sib)
	columnsHold(t, parent, child, sib)

	if child.size < tree.minBytes() {
		t.Fatalf("child still sparse: %d < %d", child.size, tree.minBytes())
	}
	// The parent pivot must equal the child's new first key.
	if !bytes.Equal(parent.pivots[0], child.key(0)) {
		t.Fatalf("pivot %q != child first key %q", parent.pivots[0], child.key(0))
	}
	// Order preserved across the boundary.
	if kvCompare(sib.key(sib.count-1), child.key(0)) >= 0 {
		t.Fatal("rotation broke key order")
	}
	if sib.size != sib.computeSize() || child.size != child.computeSize() || parent.size != parent.computeSize() {
		t.Fatal("size accounting broken")
	}
}

func TestBorrowFromRightLeaf(t *testing.T) {
	tree := borrowFixture(t)
	child := leafWith(1)
	sib := leafWith(10, 11, 12, 13, 14, 15)
	parent := internalWith([]int64{0, 1024}, 10)

	tree.borrowFromRight(parent, 0, child, sib)
	columnsHold(t, parent, child, sib)

	if child.size < tree.minBytes() {
		t.Fatalf("child still sparse: %d", child.size)
	}
	if !bytes.Equal(parent.pivots[0], sib.key(0)) {
		t.Fatalf("pivot %q != sibling first key %q", parent.pivots[0], sib.key(0))
	}
	if kvCompare(child.key(child.count-1), sib.key(0)) >= 0 {
		t.Fatal("rotation broke key order")
	}
}

func TestBorrowFromLeftInternal(t *testing.T) {
	tree := borrowFixture(t)
	// Left sibling fat enough in bytes (12 children), sparse child with 2.
	sib := internalWith([]int64{0, 1, 2, 3, 4, 5, 8, 9, 11, 12, 13, 5},
		10, 20, 30, 31, 32, 33, 34, 35, 36, 40, 50)
	child := internalWith([]int64{6, 7}, 70)
	parent := internalWith([]int64{100, 200}, 60)

	tree.borrowFromLeft(parent, 1, child, sib)
	columnsHold(t, parent, child, sib)

	if len(child.children) <= 2 {
		t.Fatal("no children rotated")
	}
	if len(child.children)+len(sib.children) != 14 {
		t.Fatal("children lost or duplicated")
	}
	if len(sib.pivots) != len(sib.children)-1 || len(child.pivots) != len(child.children)-1 {
		t.Fatal("pivot/children arity broken")
	}
	// Strict ordering across the boundary: every sib pivot < parent pivot
	// < every child pivot.
	for _, pv := range sib.pivots {
		if kvCompare(pv, parent.pivots[0]) >= 0 {
			t.Fatalf("sib pivot %q not below parent pivot %q", pv, parent.pivots[0])
		}
	}
	for _, pv := range child.pivots {
		if kvCompare(pv, parent.pivots[0]) <= 0 {
			t.Fatalf("child pivot %q not above parent pivot %q", pv, parent.pivots[0])
		}
	}
	if sib.size != sib.computeSize() || child.size != child.computeSize() {
		t.Fatal("size accounting broken")
	}
}

func TestBorrowFromRightInternal(t *testing.T) {
	tree := borrowFixture(t)
	child := internalWith([]int64{0, 1}, 10)
	sib := internalWith([]int64{2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14},
		30, 40, 50, 60, 70, 71, 72, 73, 74, 75, 76)
	parent := internalWith([]int64{100, 200}, 20)

	tree.borrowFromRight(parent, 0, child, sib)
	columnsHold(t, parent, child, sib)

	if len(child.children) <= 2 {
		t.Fatal("no children rotated")
	}
	if len(child.children)+len(sib.children) != 14 {
		t.Fatal("children lost or duplicated")
	}
	if len(sib.pivots) != len(sib.children)-1 || len(child.pivots) != len(child.children)-1 {
		t.Fatal("pivot/children arity broken")
	}
	for _, pv := range child.pivots {
		if kvCompare(pv, parent.pivots[0]) >= 0 {
			t.Fatalf("child pivot %q not below parent pivot %q", pv, parent.pivots[0])
		}
	}
	for _, pv := range sib.pivots {
		if kvCompare(pv, parent.pivots[0]) <= 0 {
			t.Fatalf("sib pivot %q not above parent pivot %q", pv, parent.pivots[0])
		}
	}
}

func TestBorrowGuardsAgainstEmptySibling(t *testing.T) {
	tree := borrowFixture(t)
	// A sibling with one entry must not be drained to empty.
	sib := leafWith(10)
	sib.size = tree.minBytes() + 1000 // lie about size to force the loop in
	child := leafWith(20)
	parent := internalWith([]int64{0, 1024}, 20)
	tree.borrowFromLeft(parent, 1, child, sib)
	if sib.count != 1 {
		t.Fatal("guard failed: sibling drained")
	}
	tree.borrowFromRight(parent, 0, child, leafWithSize(tree, 1))
}

// leafWithSize builds a one-entry leaf with an inflated size for guard
// tests.
func leafWithSize(tree *Tree, id int) *node {
	n := leafWith(id)
	n.size = tree.minBytes() + 1000
	return n
}

// TestDeleteStormEndToEnd drives the real delete path hard enough to hit
// the rebalancing branches with natural shapes: clustered deletes against
// skewed leaf sizes.
func TestDeleteStormEndToEnd(t *testing.T) {
	tree := newTestTree(t, 1024, 1<<20)
	// Skew: dense small values low, sparse large values high.
	for i := 0; i < 800; i++ {
		tree.Put(key(i), bytes.Repeat([]byte{1}, 10))
	}
	for i := 800; i < 1000; i++ {
		tree.Put(key(i), bytes.Repeat([]byte{2}, 120))
	}
	// Delete the high range back-to-front so the LAST child keeps going
	// sparse while its left siblings stay fat.
	for i := 999; i >= 700; i-- {
		if !tree.Delete(key(i)) {
			t.Fatalf("delete %d failed", i)
		}
		if i%37 == 0 {
			if err := tree.Check(); err != nil {
				t.Fatalf("at %d: %v", i, err)
			}
		}
	}
	for i := 0; i < 700; i++ {
		if _, ok := tree.Get(key(i)); !ok {
			t.Fatalf("lost key %d", i)
		}
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func kvCompare(a, b []byte) int { return bytes.Compare(a, b) }

var _ = fmt.Sprintf
