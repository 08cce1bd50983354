// Package btree implements a disk-backed B-tree with a configurable node
// size, standing in for BerkeleyDB in the paper's node-size experiments
// (§5, §7, Figure 2).
//
// The tree is the classic design (Bayer & McCreight; Comer): a balanced
// search tree with fat nodes of B bytes, keys-and-values in the leaves,
// pivots-and-children in internal nodes, all leaves at the same depth.
// Splits and merges are bounded by serialized byte size, so the node-size
// knob changes real IO sizes against the simulated device. Single-pass
// preemptive splitting (on insert) and preemptive borrowing/merging (on
// delete) keep the code iterative and the cache pinning discipline simple.
package btree

import (
	"fmt"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Config shapes a tree.
type Config struct {
	// NodeBytes is the extent size of every node: the paper's B.
	NodeBytes int
	// MaxKeyBytes and MaxValueBytes bound a single entry so that splits can
	// always make room for one more.
	MaxKeyBytes   int
	MaxValueBytes int
}

func (c Config) maxEntryBytes() int {
	return kv.EncodedEntrySize(make([]byte, c.MaxKeyBytes), nil) + c.MaxValueBytes
}

func (c Config) maxPivotBytes() int { return 4 + c.MaxKeyBytes + childRefBytes }

func (c Config) validate() error {
	if c.NodeBytes <= 0 || c.MaxKeyBytes <= 0 || c.MaxValueBytes < 0 {
		return fmt.Errorf("btree: non-positive config field")
	}
	if c.NodeBytes < baseNodeBytes+4*c.maxEntryBytes() {
		return fmt.Errorf("btree: NodeBytes %d too small for 4 max-size entries (%d)", c.NodeBytes, c.maxEntryBytes())
	}
	if c.NodeBytes < baseNodeBytes+4*c.maxPivotBytes() {
		return fmt.Errorf("btree: NodeBytes %d too small for 4 max-size pivots", c.NodeBytes)
	}
	return nil
}

// Tree is a disk-backed B-tree on an engine. Mutations are single-writer
// (they run on the engine's owner client); concurrent sim processes read
// through per-client Sessions, sharing nodes via the engine's pager.
type Tree struct {
	cfg    Config
	eng    *engine.Engine
	owner  *engine.Client
	root   int64
	height int // levels including root; 1 = root is a leaf
	items  int
	nodes  int
	// LogicalBytesInserted accumulates the payload bytes of Put calls; write
	// amplification is disk bytes written divided by this.
	LogicalBytesInserted int64
}

// New creates an empty tree on eng.
func New(cfg Config, eng *engine.Engine) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, eng: eng, owner: eng.Owner()}
	root := newLeaf()
	t.root = t.allocNode()
	t.height = 1
	t.pager().Put(t.owner, (*loader)(t), engine.PageID(t.root), root, int64(root.size))
	t.pager().Unpin(t.owner, engine.PageID(t.root))
	return t, nil
}

func (t *Tree) pager() *engine.Pager { return t.eng.Pager() }

// loader adapts Tree to engine.Loader.
type loader Tree

// Load implements engine.Loader: one IO of exactly NodeBytes, charged to
// the requesting client.
func (l *loader) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	t := (*Tree)(l)
	buf := make([]byte, t.cfg.NodeBytes)
	c.ReadAt(buf, int64(id))
	n, err := decodeNode(buf)
	if err != nil {
		panic(fmt.Sprintf("btree: load of node at %d: %v", id, err))
	}
	return n, int64(n.size)
}

// Store implements engine.Loader: one IO of exactly NodeBytes.
func (l *loader) Store(c *engine.Client, id engine.PageID, obj interface{}) {
	t := (*Tree)(l)
	n := obj.(*node)
	c.WriteAt(n.encode(t.cfg.NodeBytes), int64(id))
}

// StoreSize implements engine.StoreSizer: nodes always encode to the full
// configured node size, however few entries they hold.
func (l *loader) StoreSize(interface{}) int64 {
	return int64((*Tree)(l).cfg.NodeBytes)
}

func (t *Tree) allocNode() int64 {
	t.nodes++
	return t.eng.Alloc(int64(t.cfg.NodeBytes))
}

func (t *Tree) freeNode(off int64) {
	t.nodes--
	t.pager().Drop(t.owner, engine.PageID(off))
	t.eng.Free(off, int64(t.cfg.NodeBytes))
}

// getc pins and returns the node at off on behalf of client c.
func (t *Tree) getc(c *engine.Client, off int64) *node {
	return t.pager().Get(c, (*loader)(t), engine.PageID(off)).(*node)
}

func (t *Tree) unpinc(c *engine.Client, off int64) { t.pager().Unpin(c, engine.PageID(off)) }

// get/unpin/dirty are the owner-client shorthands the single-writer
// mutation path uses.
func (t *Tree) get(off int64) *node { return t.getc(t.owner, off) }

func (t *Tree) unpin(off int64) { t.unpinc(t.owner, off) }

func (t *Tree) dirty(off int64, n *node) {
	t.pager().MarkDirty(t.owner, engine.PageID(off), int64(n.size))
}

// Items returns the number of live keys.
func (t *Tree) Items() int { return t.items }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Nodes returns the number of live nodes.
func (t *Tree) Nodes() int { return t.nodes }

// Engine returns the engine the tree lives on.
func (t *Tree) Engine() *engine.Engine { return t.eng }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Flush writes all dirty nodes back to disk.
func (t *Tree) Flush() { t.pager().Flush(t.owner) }

func (t *Tree) checkKV(key, value []byte) {
	if len(key) == 0 || len(key) > t.cfg.MaxKeyBytes {
		panic(fmt.Sprintf("btree: key length %d outside (0,%d]", len(key), t.cfg.MaxKeyBytes))
	}
	if len(value) > t.cfg.MaxValueBytes {
		panic(fmt.Sprintf("btree: value length %d exceeds %d", len(value), t.cfg.MaxValueBytes))
	}
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) ([]byte, bool) { return t.GetAs(t.owner, key) }

// GetAs is Get charged to c.
func (t *Tree) GetAs(c *engine.Client, key []byte) ([]byte, bool) {
	off := t.root
	n := t.getc(c, off)
	for !n.leaf {
		child := n.children[n.findChild(key)]
		t.unpinc(c, off)
		off = child
		n = t.getc(c, off)
	}
	i, found := n.findEntry(key)
	var val []byte
	if found {
		val = n.entries[i].Value
	}
	t.unpinc(c, off)
	return val, found
}

// leafFull reports whether a leaf cannot be guaranteed to absorb one more
// max-size entry.
func (t *Tree) leafFull(n *node) bool {
	return n.size+t.cfg.maxEntryBytes() > t.cfg.NodeBytes
}

// internalFull reports whether an internal node cannot absorb one more
// pivot+child (which a child split underneath it would add).
func (t *Tree) internalFull(n *node) bool {
	return n.size+t.cfg.maxPivotBytes() > t.cfg.NodeBytes
}

func (t *Tree) full(n *node) bool {
	if n.leaf {
		return t.leafFull(n)
	}
	return t.internalFull(n)
}

// Put inserts or replaces key.
func (t *Tree) Put(key, value []byte) {
	t.checkKV(key, value)
	t.LogicalBytesInserted += int64(len(key) + len(value))
	rootOff := t.root
	root := t.get(rootOff)
	if t.full(root) {
		// Grow the tree: new root with the old root as its only child.
		newRoot := newInternal()
		newRoot.children = []int64{rootOff}
		newRoot.size += childRefBytes
		newOff := t.allocNode()
		t.pager().Put(t.owner, (*loader)(t), engine.PageID(newOff), newRoot, int64(newRoot.size))
		t.splitChild(newOff, newRoot, 0, rootOff, root)
		t.unpin(rootOff)
		t.root = newOff
		t.height++
		rootOff, root = newOff, newRoot
	}
	t.insertNonFull(rootOff, root, key, value)
}

// insertNonFull descends from a pinned, non-full node, splitting full
// children ahead of the descent. It consumes (unpins) the node.
func (t *Tree) insertNonFull(off int64, n *node, key, value []byte) {
	for !n.leaf {
		i := n.findChild(key)
		childOff := n.children[i]
		child := t.get(childOff)
		if t.full(child) {
			t.splitChild(off, n, i, childOff, child)
			// The split may have redirected key to the new right sibling.
			if j := n.findChild(key); j != i {
				t.unpin(childOff)
				childOff = n.children[j]
				child = t.get(childOff)
			}
		}
		t.unpin(off)
		off, n = childOff, child
	}
	_, existed := n.findEntry(key)
	n.insertEntry(key, value)
	if !existed {
		t.items++
	}
	t.dirty(off, n)
	t.unpin(off)
}

// splitChild splits the pinned child (at parent index i) into two, promoting
// a pivot into the pinned parent. Both nodes stay pinned; the new right
// sibling is unpinned before return.
func (t *Tree) splitChild(parentOff int64, parent *node, i int, childOff int64, child *node) {
	right, pivot := t.splitNode(child)
	rightOff := t.allocNode()

	parent.children = append(parent.children, 0)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = rightOff
	parent.pivots = append(parent.pivots, nil)
	copy(parent.pivots[i+1:], parent.pivots[i:])
	parent.pivots[i] = pivot
	parent.size += childRefBytes + 4 + len(pivot)

	t.pager().Put(t.owner, (*loader)(t), engine.PageID(rightOff), right, int64(right.size))
	t.pager().Unpin(t.owner, engine.PageID(rightOff))
	t.dirty(parentOff, parent)
	t.dirty(childOff, child)
}

// splitNode moves the upper half (by bytes) of n into a fresh right sibling
// and returns it with the separating pivot. Keys >= pivot live in the right
// node.
func (t *Tree) splitNode(n *node) (*node, []byte) {
	if n.leaf {
		half := n.size / 2
		acc := baseNodeBytes
		cut := 0
		for acc < half && cut < len(n.entries)-1 {
			acc += n.entries[cut].Size()
			cut++
		}
		if cut == 0 {
			cut = 1
		}
		right := newLeaf()
		right.entries = append(right.entries, n.entries[cut:]...)
		for _, e := range right.entries {
			right.size += e.Size()
		}
		n.entries = n.entries[:cut:cut]
		n.size = n.computeSize()
		pivot := append([]byte(nil), right.entries[0].Key...)
		return right, pivot
	}
	if len(n.children) < 4 {
		panic("btree: splitting internal node with fewer than 4 children")
	}
	// Split at a child boundary nearest half the bytes; child m goes left of
	// the promoted pivots[m].
	half := n.size / 2
	acc := baseNodeBytes + childRefBytes // child 0
	m := 0
	for acc < half && m < len(n.children)-3 {
		acc += 4 + len(n.pivots[m]) + childRefBytes
		m++
	}
	if m == 0 {
		m = 1
	}
	pivot := n.pivots[m]
	right := newInternal()
	right.children = append(right.children, n.children[m+1:]...)
	right.pivots = append(right.pivots, n.pivots[m+1:]...)
	right.size = right.computeSize()
	n.children = n.children[: m+1 : m+1]
	n.pivots = n.pivots[:m:m]
	n.size = n.computeSize()
	return right, pivot
}

// minBytes is the sparseness threshold for preemptive rebalancing on
// delete: nodes are kept at least a quarter full so merges always fit.
func (t *Tree) minBytes() int { return t.cfg.NodeBytes / 4 }

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) bool {
	off := t.root
	n := t.get(off)
	for !n.leaf {
		i := n.findChild(key)
		childOff, child := t.fixSparseChild(off, n, i, key)
		// Root collapse: fixSparseChild may have merged the root's only
		// remaining children.
		if off == t.root && !n.leaf && len(n.children) == 1 {
			only := n.children[0]
			t.unpin(off)
			t.freeNode(off)
			t.root = only
			t.height--
		} else {
			t.unpin(off)
		}
		off, n = childOff, child
	}
	removed := n.removeEntry(key)
	if removed {
		t.items--
		t.dirty(off, n)
	}
	t.unpin(off)
	return removed
}

// fixSparseChild ensures the child of parent covering key is at least
// minBytes before descent, borrowing from or merging with a sibling.
// It returns the (possibly different) pinned child to descend into.
func (t *Tree) fixSparseChild(parentOff int64, parent *node, i int, key []byte) (int64, *node) {
	childOff := parent.children[i]
	child := t.get(childOff)
	if child.size >= t.minBytes() || len(parent.children) == 1 {
		return childOff, child
	}
	// Prefer the right sibling; fall back to the left.
	if i+1 < len(parent.children) {
		sibOff := parent.children[i+1]
		sib := t.get(sibOff)
		if child.size+sib.size-baseNodeBytes+t.pivotCost(parent.pivots[i]) <= t.mergeLimit() {
			t.mergeChildren(parentOff, parent, i, childOff, child, sibOff, sib)
			return childOff, child
		}
		t.borrowFromRight(parent, i, child, sib)
		t.dirty(parentOff, parent)
		t.dirty(childOff, child)
		t.dirty(sibOff, sib)
		t.unpin(sibOff)
		return childOff, child
	}
	sibOff := parent.children[i-1]
	sib := t.get(sibOff)
	if child.size+sib.size-baseNodeBytes+t.pivotCost(parent.pivots[i-1]) <= t.mergeLimit() {
		// Merge child into the left sibling and descend into the sibling.
		t.mergeChildren(parentOff, parent, i-1, sibOff, sib, childOff, child)
		return sibOff, sib
	}
	t.borrowFromLeft(parent, i, child, sib)
	t.dirty(parentOff, parent)
	t.dirty(childOff, child)
	t.dirty(sibOff, sib)
	t.unpin(sibOff)
	return childOff, child
}

func (t *Tree) pivotCost(p []byte) int { return 4 + len(p) }

// mergeLimit leaves room so a merged node is not immediately full.
func (t *Tree) mergeLimit() int {
	return t.cfg.NodeBytes - t.cfg.maxEntryBytes() - t.cfg.maxPivotBytes()
}

// mergeChildren folds the pinned right node into the pinned left node and
// removes pivot i from the parent. The right node is freed and unpinned.
func (t *Tree) mergeChildren(parentOff int64, parent *node, i int, leftOff int64, left *node, rightOff int64, right *node) {
	if left.leaf != right.leaf {
		panic("btree: merging nodes of different kinds")
	}
	if left.leaf {
		left.entries = append(left.entries, right.entries...)
	} else {
		left.pivots = append(left.pivots, parent.pivots[i])
		left.pivots = append(left.pivots, right.pivots...)
		left.children = append(left.children, right.children...)
	}
	left.size = left.computeSize()
	parent.size -= childRefBytes + t.pivotCost(parent.pivots[i])
	parent.pivots = append(parent.pivots[:i], parent.pivots[i+1:]...)
	parent.children = append(parent.children[:i+1], parent.children[i+2:]...)
	t.dirty(parentOff, parent)
	t.dirty(leftOff, left)
	t.unpin(rightOff)
	t.freeNode(rightOff)
}

// borrowFromRight moves items from the right sibling (parent index i+1)
// into child (parent index i) until child reaches minBytes.
func (t *Tree) borrowFromRight(parent *node, i int, child, sib *node) {
	for child.size < t.minBytes() && sib.size > t.minBytes() {
		if child.leaf {
			if len(sib.entries) <= 1 {
				return
			}
			e := sib.entries[0]
			sib.entries = sib.entries[1:]
			sib.size -= e.Size()
			child.entries = append(child.entries, e)
			child.size += e.Size()
			parent.size += len(sib.entries[0].Key) - len(parent.pivots[i])
			parent.pivots[i] = append([]byte(nil), sib.entries[0].Key...)
		} else {
			if len(sib.children) <= 2 {
				return
			}
			// Rotate through the parent pivot.
			moved := sib.children[0]
			newPivot := sib.pivots[0]
			sib.children = sib.children[1:]
			sib.pivots = sib.pivots[1:]
			sib.size -= childRefBytes + t.pivotCost(newPivot)
			child.children = append(child.children, moved)
			child.pivots = append(child.pivots, parent.pivots[i])
			child.size += childRefBytes + t.pivotCost(parent.pivots[i])
			parent.size += len(newPivot) - len(parent.pivots[i])
			parent.pivots[i] = newPivot
		}
	}
}

// borrowFromLeft moves items from the left sibling (parent index i-1) into
// child (parent index i) until child reaches minBytes.
func (t *Tree) borrowFromLeft(parent *node, i int, child, sib *node) {
	for child.size < t.minBytes() && sib.size > t.minBytes() {
		if child.leaf {
			if len(sib.entries) <= 1 {
				return
			}
			e := sib.entries[len(sib.entries)-1]
			sib.entries = sib.entries[:len(sib.entries)-1]
			sib.size -= e.Size()
			child.entries = append([]kv.Entry{e}, child.entries...)
			child.size += e.Size()
			parent.size += len(e.Key) - len(parent.pivots[i-1])
			parent.pivots[i-1] = append([]byte(nil), e.Key...)
		} else {
			if len(sib.children) <= 2 {
				return
			}
			moved := sib.children[len(sib.children)-1]
			newPivot := sib.pivots[len(sib.pivots)-1]
			sib.children = sib.children[:len(sib.children)-1]
			sib.pivots = sib.pivots[:len(sib.pivots)-1]
			sib.size -= childRefBytes + t.pivotCost(newPivot)
			child.children = append([]int64{moved}, child.children...)
			child.pivots = append([][]byte{parent.pivots[i-1]}, child.pivots...)
			child.size += childRefBytes + t.pivotCost(parent.pivots[i-1])
			parent.size += len(newPivot) - len(parent.pivots[i-1])
			parent.pivots[i-1] = newPivot
		}
	}
}

// Scan calls fn for each entry with lo <= key < hi in key order (hi nil
// means unbounded). fn returning false stops the scan early.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	t.ScanAs(t.owner, lo, hi, fn)
}

func (t *Tree) scan(c *engine.Client, off int64, lo, hi []byte, fn func(key, value []byte) bool) bool {
	n := t.getc(c, off)
	defer t.unpinc(c, off)
	if n.leaf {
		i := 0
		if lo != nil {
			i, _ = n.findEntry(lo)
		}
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if hi != nil && kv.Compare(e.Key, hi) >= 0 {
				return false
			}
			if !fn(e.Key, e.Value) {
				return false
			}
		}
		return true
	}
	first := 0
	if lo != nil {
		first = n.findChild(lo)
	}
	for i := first; i < len(n.children); i++ {
		if i > 0 && hi != nil && kv.Compare(n.pivots[i-1], hi) >= 0 {
			return false
		}
		if !t.scan(c, n.children[i], lo, hi, fn) {
			return false
		}
	}
	return true
}

// ScanN collects up to n entries starting at lo.
func (t *Tree) ScanN(lo []byte, n int) []kv.Entry {
	out := make([]kv.Entry, 0, n)
	t.Scan(lo, nil, func(k, v []byte) bool {
		out = append(out, kv.Entry{Key: k, Value: v})
		return len(out) < n
	})
	return out
}

// Check walks the whole tree verifying structural invariants: key order,
// pivot ranges, byte-size accounting, extent fit, and uniform leaf depth.
// It is meant for tests and returns the first violation found.
func (t *Tree) Check() error {
	depth := -1
	var walk func(off int64, lo, hi []byte, level int) error
	walk = func(off int64, lo, hi []byte, level int) error {
		n := t.get(off)
		defer t.unpin(off)
		if n.size != n.computeSize() {
			return fmt.Errorf("node %d: size accounting %d != actual %d", off, n.size, n.computeSize())
		}
		if n.size > t.cfg.NodeBytes {
			return fmt.Errorf("node %d: size %d exceeds extent %d", off, n.size, t.cfg.NodeBytes)
		}
		if n.leaf {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("leaf %d at depth %d, expected %d", off, level, depth)
			}
			for i, e := range n.entries {
				if i > 0 && kv.Compare(n.entries[i-1].Key, e.Key) >= 0 {
					return fmt.Errorf("leaf %d: entries out of order at %d", off, i)
				}
				if lo != nil && kv.Compare(e.Key, lo) < 0 {
					return fmt.Errorf("leaf %d: key below range", off)
				}
				if hi != nil && kv.Compare(e.Key, hi) >= 0 {
					return fmt.Errorf("leaf %d: key above range", off)
				}
			}
			return nil
		}
		if len(n.children) != len(n.pivots)+1 {
			return fmt.Errorf("node %d: %d children vs %d pivots", off, len(n.children), len(n.pivots))
		}
		for i, p := range n.pivots {
			if i > 0 && kv.Compare(n.pivots[i-1], p) >= 0 {
				return fmt.Errorf("node %d: pivots out of order at %d", off, i)
			}
			if lo != nil && kv.Compare(p, lo) < 0 {
				return fmt.Errorf("node %d: pivot below range", off)
			}
			if hi != nil && kv.Compare(p, hi) >= 0 {
				return fmt.Errorf("node %d: pivot above range", off)
			}
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.pivots[i-1]
			}
			if i < len(n.pivots) {
				chi = n.pivots[i]
			}
			if err := walk(c, clo, chi, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, nil, nil, 0)
}
