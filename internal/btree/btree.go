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
	"bytes"
	"fmt"
	"slices"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Config shapes a tree.
type Config struct {
	// NodeBytes is the extent size of every node: the paper's B.
	NodeBytes int
	// MaxKeyBytes and MaxValueBytes bound a single entry so that splits can
	// always make room for one more. A leaf page stores each length in a u16,
	// so neither may exceed 65,535.
	MaxKeyBytes   int
	MaxValueBytes int
}

// maxEntryBytes is kv.EncodedEntrySize of a max-size key and value, summed
// without building them: leafFull asks on every Put.
func (c Config) maxEntryBytes() int {
	return kv.EncodedEntrySize(nil, nil) + c.MaxKeyBytes + c.MaxValueBytes
}

func (c Config) maxPivotBytes() int { return 4 + c.MaxKeyBytes + childRefBytes }

func (c Config) validate() error {
	if c.NodeBytes <= 0 || c.MaxKeyBytes <= 0 || c.MaxValueBytes < 0 {
		return fmt.Errorf("btree: non-positive config field")
	}
	if c.MaxKeyBytes > maxLenField || c.MaxValueBytes > maxLenField {
		return fmt.Errorf("btree: MaxKeyBytes %d or MaxValueBytes %d exceeds a leaf's u16 length field (%d)", c.MaxKeyBytes, c.MaxValueBytes, maxLenField)
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
	// scratch is the writer's page that a repack moves entries through.
	scratch []byte
	// pages is the writer's free list: NodeBytes pages its mutation-path
	// loads read into, given back when it evicts a leaf no reader viewed.
	pages [][]byte
	// LogicalBytesInserted accumulates the payload bytes of Put calls; write
	// amplification is disk bytes written divided by this.
	LogicalBytesInserted int64
}

// New creates an empty tree on eng.
func New(cfg Config, eng *engine.Engine) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, eng: eng, owner: eng.Owner(), scratch: make([]byte, cfg.NodeBytes)}
	root := newLeaf(cfg.NodeBytes)
	t.root = t.allocNode()
	t.height = 1
	t.pager().Put(t.owner, (*loader)(t), engine.PageID(t.root), root, int64(root.size)).Unpin(t.owner)
	return t, nil
}

func (t *Tree) pager() *engine.Pager { return t.eng.Pager() }

// loader adapts Tree to engine.Loader for readers: a Get or a Scan, on any
// client, views the extent its load lends.
type loader Tree

// writer is the loader of the mutation path (Put, Delete and the split,
// merge and borrow helpers they call), which edits what it loads: it loads
// its own way and stores as loader does.
type writer struct{ *loader }

// freePages caps the writer's free list. The writer takes a page per
// mutation-path miss and gives one back per leaf it evicts unviewed, and
// under a full cache evictions follow misses about one for one, so the list
// stays a few pages long; the cap bounds what a burst of evictions (one Put
// that splits, an EvictAll) leaves behind at 8 pages, beyond the pager's
// budget.
const freePages = 8

// Load implements engine.Loader: one IO of exactly NodeBytes, charged to
// the requesting client. A leaf keeps the extent the read lent as its page.
func (l *loader) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	n := decodeAt(id, c.Read(int64(id), l.cfg.NodeBytes))
	return n, int64(n.size)
}

// Load implements engine.Loader: one IO of exactly NodeBytes, read as a
// private copy into a page from the free list. A leaf keeps it as its page,
// unshared, so the first edit has nothing to copy; an internal node's pivots
// view it, and it goes with them.
func (w writer) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	page := (*Tree)(w.loader).takePage()
	c.ReadAt(page, int64(id))
	n := decodeAt(id, page)
	n.shared = false // the page is the writer's, not the store's
	return n, int64(n.size)
}

// decodeAt decodes the node at id from buf, which its read returned.
func decodeAt(id engine.PageID, buf []byte) *node {
	n, err := decodeNode(buf)
	if err != nil {
		panic(fmt.Sprintf("btree: load of node at %d: %v", id, err))
	}
	return n
}

// Store implements engine.Loader: one IO of exactly NodeBytes. The owner
// evicting a private leaf that no reader viewed writes its sealed page with
// WriteAt, which the store copies, and takes the page back into the free
// list; every other write-back hands over a leaf's own sealed page or an
// internal node's fresh encoding.
func (l *loader) Store(c *engine.Client, id engine.PageID, obj interface{}) {
	t := (*Tree)(l)
	n := obj.(*node)
	if c == t.owner && c.Evicting() && n.leaf && !n.shared && !n.viewed.Load() {
		n.seal()
		c.WriteAt(n.page, int64(id))
		t.givePage(n.page)
		n.page = nil // the pager drops n: a stray read of it fails loudly
		return
	}
	c.Handover(n.encode(t.cfg.NodeBytes), int64(id))
}

// takePage returns a page from the writer's free list, or a fresh one. Its
// bytes are whatever it last held.
func (t *Tree) takePage() []byte {
	if k := len(t.pages); k > 0 {
		p := t.pages[k-1]
		t.pages = t.pages[:k-1]
		return p
	}
	return make([]byte, t.cfg.NodeBytes)
}

// blankPage is takePage zeroed: the page of a new leaf.
func (t *Tree) blankPage() []byte {
	p := t.takePage()
	clear(p)
	return p
}

// givePage returns p to the writer's free list, unless the list is full.
func (t *Tree) givePage(p []byte) {
	if len(t.pages) < freePages {
		t.pages = append(t.pages, p)
	}
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

// getc pins and returns the node at off on behalf of client c, with the
// pin that releases it.
func (t *Tree) getc(c *engine.Client, off int64) (*node, *engine.Pin) {
	obj, pin := t.pager().Pin(c, (*loader)(t), engine.PageID(off))
	return obj.(*node), pin
}

// get/unpin/dirty/release are the owner-client shorthands the single-writer
// mutation path uses; get loads a node it misses through the writer.
func (t *Tree) get(off int64) (*node, *engine.Pin) {
	obj, pin := t.pager().Pin(t.owner, writer{(*loader)(t)}, engine.PageID(off))
	return obj.(*node), pin
}

func (t *Tree) unpin(pin *engine.Pin) { pin.Unpin(t.owner) }

func (t *Tree) dirty(pin *engine.Pin, n *node) { pin.MarkDirty(t.owner, int64(n.size)) }

// release marks n, which pin holds, dirty and unpins it.
func (t *Tree) release(pin *engine.Pin, n *node) { pin.Release(t.owner, int64(n.size)) }

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
	n, pin := t.getc(c, t.root)
	for !n.leaf {
		child := n.children[n.findChild(key)]
		pin.Unpin(c)
		n, pin = t.getc(c, child)
	}
	i, found := n.findEntry(key)
	var val []byte
	if found {
		n.view()
		_, val = n.entry(i)
	}
	pin.Unpin(c)
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
	root, rootPin := t.get(rootOff)
	if t.full(root) {
		// Grow the tree: new root with the old root as its only child.
		newRoot := newInternal(nil, []int64{rootOff})
		newOff := t.allocNode()
		newPin := t.pager().Put(t.owner, (*loader)(t), engine.PageID(newOff), newRoot, int64(newRoot.size))
		t.splitChild(newPin, newRoot, 0, rootPin, root)
		t.unpin(rootPin)
		t.root = newOff
		t.height++
		rootPin, root = newPin, newRoot
	}
	t.insertNonFull(rootPin, root, key, value)
}

// insertNonFull descends from a pinned, non-full node, splitting full
// children ahead of the descent. It consumes (unpins) the node.
func (t *Tree) insertNonFull(pin *engine.Pin, n *node, key, value []byte) {
	for !n.leaf {
		i := n.findChild(key)
		child, childPin := t.get(n.children[i])
		if t.full(child) {
			t.splitChild(pin, n, i, childPin, child)
			// The split may have redirected key to the new right sibling.
			if j := n.findChild(key); j != i {
				t.unpin(childPin)
				child, childPin = t.get(n.children[j])
			}
		}
		t.unpin(pin)
		pin, n = childPin, child
	}
	if n.insertEntry(key, value, t.scratch) {
		t.items++
	}
	t.release(pin, n)
}

// splitChild splits the pinned child (at parent index i) into two, promoting
// a pivot into the pinned parent. Both nodes stay pinned; the new right
// sibling is unpinned before return.
func (t *Tree) splitChild(parentPin *engine.Pin, parent *node, i int, childPin *engine.Pin, child *node) {
	right, pivot := t.splitNode(child)
	rightOff := t.allocNode()

	parent.insertPivot(i, pivot, i+1, rightOff)

	t.pager().Put(t.owner, (*loader)(t), engine.PageID(rightOff), right, int64(right.size)).Unpin(t.owner)
	t.dirty(parentPin, parent)
	t.dirty(childPin, child)
}

// splitNode moves the upper half (by bytes) of n into a fresh right sibling
// and returns it with the separating pivot. Keys >= pivot live in the right
// node.
func (t *Tree) splitNode(n *node) (*node, []byte) {
	if n.leaf {
		half := n.size / 2
		acc := baseNodeBytes
		cut := 0
		for acc < half && cut < n.count-1 {
			acc += n.entrySize(cut)
			cut++
		}
		if cut == 0 {
			cut = 1
		}
		right := leafOn(t.blankPage()).fill(n, cut, n.count)
		n.repack(0, cut, t.scratch)
		return right, bytes.Clone(right.key(0))
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
	pivot := bytes.Clone(n.pivots[m]) // the parent must not pin n's extent
	right := newInternal(slices.Clone(n.pivots[m+1:]), slices.Clone(n.children[m+1:]))
	n.set(newInternal(n.pivots[:m:m], n.children[:m+1:m+1]))
	return right, pivot
}

// minBytes is the sparseness threshold for preemptive rebalancing on
// delete: nodes are kept at least a quarter full so merges always fit.
func (t *Tree) minBytes() int { return t.cfg.NodeBytes / 4 }

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) bool {
	n, pin := t.get(t.root)
	for !n.leaf {
		child, childPin := t.fixSparseChild(pin, n, n.findChild(key))
		// Root collapse: fixSparseChild may have merged the root's only
		// remaining children.
		if off := int64(pin.ID()); off == t.root && len(n.children) == 1 {
			only := n.children[0]
			t.unpin(pin)
			t.freeNode(off)
			t.root = only
			t.height--
		} else {
			t.unpin(pin)
		}
		n, pin = child, childPin
	}
	removed := n.removeEntry(key)
	if removed {
		t.items--
		t.release(pin, n)
	} else {
		t.unpin(pin)
	}
	return removed
}

// fixSparseChild ensures parent's child i is at least minBytes before
// descent, borrowing from or merging with a sibling. It returns the
// (possibly different) pinned child to descend into.
func (t *Tree) fixSparseChild(parentPin *engine.Pin, parent *node, i int) (*node, *engine.Pin) {
	child, childPin := t.get(parent.children[i])
	if child.size >= t.minBytes() || len(parent.children) == 1 {
		return child, childPin
	}
	// Prefer the right sibling; fall back to the left.
	if i+1 < len(parent.children) {
		sib, sibPin := t.get(parent.children[i+1])
		if child.size+sib.size-baseNodeBytes+t.pivotCost(parent.pivots[i]) <= t.mergeLimit() {
			t.mergeChildren(parentPin, parent, i, childPin, child, sibPin, sib)
			return child, childPin
		}
		t.borrowFromRight(parent, i, child, sib)
		t.dirty(parentPin, parent)
		t.dirty(childPin, child)
		t.release(sibPin, sib)
		return child, childPin
	}
	sib, sibPin := t.get(parent.children[i-1])
	if child.size+sib.size-baseNodeBytes+t.pivotCost(parent.pivots[i-1]) <= t.mergeLimit() {
		// Merge child into the left sibling and descend into the sibling.
		t.mergeChildren(parentPin, parent, i-1, sibPin, sib, childPin, child)
		return sib, sibPin
	}
	t.borrowFromLeft(parent, i, child, sib)
	t.dirty(parentPin, parent)
	t.dirty(childPin, child)
	t.release(sibPin, sib)
	return child, childPin
}

func (t *Tree) pivotCost(p []byte) int { return 4 + len(p) }

// mergeLimit leaves room so a merged node is not immediately full.
func (t *Tree) mergeLimit() int {
	return t.cfg.NodeBytes - t.cfg.maxEntryBytes() - t.cfg.maxPivotBytes()
}

// mergeChildren folds the pinned right node into the pinned left node and
// removes pivot i from the parent. The right node is freed and unpinned.
func (t *Tree) mergeChildren(parentPin *engine.Pin, parent *node, i int, leftPin *engine.Pin, left *node, rightPin *engine.Pin, right *node) {
	if left.leaf != right.leaf {
		panic("btree: merging nodes of different kinds")
	}
	// What moves into left is copied: it must not pin another node's extent.
	if left.leaf {
		left.repack(0, left.count, t.scratch).fill(right, 0, right.count)
	} else {
		pivots := left.pivots
		for _, p := range append([][]byte{parent.pivots[i]}, right.pivots...) {
			pivots = append(pivots, bytes.Clone(p))
		}
		left.set(newInternal(pivots, append(left.children, right.children...)))
	}
	parent.removePivot(i, i+1)
	t.dirty(parentPin, parent)
	t.dirty(leftPin, left)
	rightOff := int64(rightPin.ID())
	t.unpin(rightPin)
	t.freeNode(rightOff)
}

// borrowFromRight moves items from the right sibling (parent index i+1)
// into child (parent index i) until child reaches minBytes.
func (t *Tree) borrowFromRight(parent *node, i int, child, sib *node) {
	if child.leaf {
		m := t.borrowCount(child, sib, func(j int) int { return j })
		if m == 0 {
			return
		}
		child.repack(0, child.count, t.scratch).fill(sib, 0, m)
		sib.repack(m, sib.count, t.scratch)
		t.setPivot(parent, i, sib.key(0))
		return
	}
	for child.size < t.minBytes() && sib.size > t.minBytes() && len(sib.children) > 2 {
		// Rotate through the parent pivot.
		newPivot, moved := sib.removePivot(0, 0)
		child.insertPivot(len(child.pivots), bytes.Clone(parent.pivots[i]), len(child.children), moved)
		t.setPivot(parent, i, newPivot)
	}
}

// setPivot replaces parent's pivot i with a copy of p: a pivot must not pin
// a child's page.
func (t *Tree) setPivot(parent *node, i int, p []byte) {
	_, c := parent.removePivot(i, i+1)
	parent.insertPivot(i, bytes.Clone(p), i+1, c)
}

// borrowCount returns how many leaf entries move from sib into child to
// bring child up to minBytes, taking them in the order at gives (the j-th
// entry to move is sib's at(j)) and always leaving sib one.
func (t *Tree) borrowCount(child, sib *node, at func(j int) int) int {
	m, cs, ss := 0, child.size, sib.size
	for cs < t.minBytes() && ss > t.minBytes() && m < sib.count-1 {
		e := sib.entrySize(at(m))
		cs, ss, m = cs+e, ss-e, m+1
	}
	return m
}

// borrowFromLeft moves items from the left sibling (parent index i-1) into
// child (parent index i) until child reaches minBytes.
func (t *Tree) borrowFromLeft(parent *node, i int, child, sib *node) {
	if child.leaf {
		m := t.borrowCount(child, sib, func(j int) int { return sib.count - 1 - j })
		if m == 0 {
			return
		}
		cut := sib.count - m
		child.set(leafOn(t.blankPage()).fill(sib, cut, sib.count).fill(child, 0, child.count))
		sib.repack(0, cut, t.scratch)
		t.setPivot(parent, i-1, child.key(0))
		return
	}
	for child.size < t.minBytes() && sib.size > t.minBytes() && len(sib.children) > 2 {
		newPivot, moved := sib.removePivot(len(sib.pivots)-1, len(sib.children)-1)
		child.insertPivot(0, bytes.Clone(parent.pivots[i-1]), 0, moved)
		t.setPivot(parent, i-1, newPivot)
	}
}

// Scan calls fn for each entry with lo <= key < hi in key order (hi nil
// means unbounded). fn returning false stops the scan early.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	t.ScanAs(t.owner, lo, hi, fn)
}

func (t *Tree) scan(c *engine.Client, off int64, lo, hi []byte, fn func(key, value []byte) bool) bool {
	n, pin := t.getc(c, off)
	defer pin.Unpin(c)
	if n.leaf {
		i := 0
		if lo != nil {
			i, _ = n.findEntry(lo)
		}
		if i < n.count {
			n.view()
		}
		for ; i < n.count; i++ {
			k, v := n.entry(i)
			if hi != nil && kv.Compare(k, hi) >= 0 {
				return false
			}
			if !fn(k, v) {
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
		n, pin := t.get(off)
		defer t.unpin(pin)
		if n.leaf {
			// The checks a load makes, then what only the tree knows.
			size, low, heads, err := n.validate(nil)
			switch {
			case depth != -1 && depth != level:
				return fmt.Errorf("leaf %d at depth %d, expected %d", off, level, depth)
			case len(n.page) != t.cfg.NodeBytes:
				return fmt.Errorf("leaf %d: page of %d bytes, want %d", off, len(n.page), t.cfg.NodeBytes)
			case err != nil:
				return fmt.Errorf("leaf %d: %v", off, err)
			case n.size != size:
				return fmt.Errorf("node %d: size accounting %d != actual %d", off, n.size, size)
			case !slices.Equal(n.heads, heads):
				return fmt.Errorf("leaf %d: head column %x != its keys' heads %x", off, n.heads, heads)
			case n.low > low || n.free() < 0:
				return fmt.Errorf("leaf %d: heap start %d outside [%d, %d]", off, n.low, headerBytes+slotBytes*n.count, low)
			case n.count > 0 && lo != nil && kv.Compare(n.key(0), lo) < 0:
				return fmt.Errorf("leaf %d: key below range", off)
			case n.count > 0 && hi != nil && kv.Compare(n.key(n.count-1), hi) >= 0:
				return fmt.Errorf("leaf %d: key above range", off)
			}
			depth = level
			return nil
		}
		if n.size != n.computeSize() {
			return fmt.Errorf("node %d: size accounting %d != actual %d", off, n.size, n.computeSize())
		}
		if n.size > t.cfg.NodeBytes {
			return fmt.Errorf("node %d: size %d exceeds extent %d", off, n.size, t.cfg.NodeBytes)
		}
		if len(n.children) != len(n.pivots)+1 {
			return fmt.Errorf("node %d: %d children vs %d pivots", off, len(n.children), len(n.pivots))
		}
		if len(n.pivotHeads) != len(n.pivots) {
			return fmt.Errorf("node %d: %d pivot heads vs %d pivots", off, len(n.pivotHeads), len(n.pivots))
		}
		for i, p := range n.pivots {
			if n.pivotHeads[i] != kv.Head(p) {
				return fmt.Errorf("node %d: pivot head %d is %x, its pivot's is %x", off, i, n.pivotHeads[i], kv.Head(p))
			}
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
