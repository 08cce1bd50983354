// Package betree implements a disk-backed Bε-tree with a configurable node
// size and fanout, standing in for TokuDB in the paper's node-size
// experiments (§6, §7, Figure 3).
//
// The tree follows Brodal–Fagerberg / Bender et al. [13, 21]: a balanced
// search tree with fat nodes of B bytes; internal nodes carry per-child
// message buffers; updates are encoded as messages (insert, tombstone
// delete, upsert) that settle into buffers and are flushed in bulk toward
// the leaves when buffers overflow, always to the child with the most
// pending bytes. Queries logically apply the messages on their root-to-leaf
// path.
//
// A flush is a merge: messages move as (key, seq)-sorted runs, into a buffer
// through buffer.merge and into a leaf's entries through walkLeaf.
//
// The Theorem 9 optimizations are selected by Config (see config.go):
// per-child buffer segments with a B/F bound and partial (one-slot) query
// IOs; pivots stored in the parent so queries cost one IO of ~B/F+F per
// level; leaves organized as basement blocks. In place of the paper's
// weight-balanced subtree rebuilds, structural balance uses split/merge with
// byte thresholds: all leaves stay at the same depth and no fanout exceeds
// MaxFanout, but only leaves merge, so an internal node's fanout has no
// lower bound (a one-child root collapses). DESIGN.md §5 documents the
// substitution.
package betree

import (
	"fmt"
	"slices"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Tree is a disk-backed Bε-tree on an engine. Mutations are single-writer
// (they run on the engine's owner client); concurrent sim processes read
// through per-client Sessions, sharing nodes via the engine's pager.
type Tree struct {
	cfg     Config
	eng     *engine.Engine
	owner   *engine.Client
	root    int64
	rootN   *node // root stays pinned, by rootPin
	rootPin *engine.Pin
	items   int
	nodes   int
	seq     uint64

	// LogicalBytesInserted accumulates the payload bytes of Put/Upsert
	// calls; write amplification divides disk bytes written by this.
	LogicalBytesInserted int64
	// Flushes counts buffer-flush operations.
	Flushes int64
}

// New creates an empty tree on eng.
func New(cfg Config, eng *engine.Engine) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Layout == Packed && cfg.QueryMode != WholeNode {
		return nil, fmt.Errorf("betree: packed layout supports only whole-node queries")
	}
	t := &Tree{cfg: cfg, eng: eng, owner: eng.Owner()}
	t.rootN = newLeafNode()
	t.root = t.allocNode()
	t.rootPin = t.pager().Put(t.owner, (*loader)(t), engine.PageID(t.root), t.rootN, t.rootN.chargeSize(cfg))
	// Root remains pinned for the tree's lifetime.
	return t, nil
}

func (t *Tree) pager() *engine.Pager { return t.eng.Pager() }

// loader adapts Tree to engine.Loader. Load performs a whole-extent read
// (the cold-miss path of ensureFull, under the pager's busy latch so
// concurrent clients never decode the same node twice); partial reads stay
// explicit in readSlot. Store writes back whole extents.
type loader Tree

// Load implements engine.Loader.
func (l *loader) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	t := (*Tree)(l)
	n := t.decodeExtent(int64(id), c.Read(int64(id), t.cfg.NodeBytes))
	return n, n.chargeSize(t.cfg)
}

// Store implements engine.Loader: the fresh encoding is handed over.
func (l *loader) Store(c *engine.Client, id engine.PageID, obj interface{}) {
	t := (*Tree)(l)
	c.Handover(obj.(*node).encode(t.cfg), int64(id))
}

// decodeExtent decodes the whole extent of the node at off.
func (t *Tree) decodeExtent(off int64, ext []byte) *node {
	n, err := decodeFull(t.cfg, ext)
	if err != nil {
		panic(fmt.Sprintf("betree: load of node at %d: %v", off, err))
	}
	return n
}

// StoreSize implements engine.StoreSizer: nodes encode to at most the
// configured node size (exactly, under the slotted layout). The bound
// keeps the pager's dirty-set accounting conservative, which is the safe
// direction for the durability layer's dirty-set checkpoint trigger.
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

func (t *Tree) unpin(pin *engine.Pin) { pin.Unpin(t.owner) }

func (t *Tree) markDirty(pin *engine.Pin, n *node) { pin.MarkDirty(t.owner, n.chargeSize(t.cfg)) }

// release marks n, which pin holds, dirty and unpins it.
func (t *Tree) release(pin *engine.Pin, n *node) { pin.Release(t.owner, n.chargeSize(t.cfg)) }

// Items returns the number of live keys settled in leaves. Updates still
// buffered in internal nodes are not counted until they reach a leaf; call
// Settle first for an exact count.
func (t *Tree) Items() int { return t.items }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.rootN.height + 1 }

// Nodes returns the number of live nodes.
func (t *Tree) Nodes() int { return t.nodes }

// Engine returns the engine the tree lives on.
func (t *Tree) Engine() *engine.Engine { return t.eng }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Flush writes all dirty nodes to disk.
func (t *Tree) Flush() { t.pager().Flush(t.owner) }

// ---------------------------------------------------------------------------
// Node residency

// ensureFull returns the node at off with all content resident and every
// entry decoded, pinned on the owner client (single-writer paths).
func (t *Tree) ensureFull(off int64) (*node, *engine.Pin) {
	n, pin := t.ensureFullc(t.owner, off)
	if err := n.materialize(t.cfg); err != nil {
		panic(fmt.Sprintf("betree: load of node at %d: %v", off, err))
	}
	return n, pin
}

// ensureFullc returns the node at off Full (a Slotted leaf possibly lazy),
// pinned on behalf of client c. Charges one whole-extent read if anything
// was missing. Cold misses go through the pager's Pin so the busy latch
// makes concurrent clients share a single load. A resident partial node —
// or one a concurrent slot read put in between TryPin and Pin — is not
// upgraded in place, since other readers hold it: the whole node is decoded
// aside and swapped into the pager, and a client that swaps second gets the
// first one's node.
func (t *Tree) ensureFullc(c *engine.Client, off int64) (*node, *engine.Pin) {
	id := engine.PageID(off)
	obj, pin := t.pager().TryPin(c, id)
	if pin == nil {
		obj, pin = t.pager().Pin(c, (*loader)(t), id)
	}
	n := obj.(*node)
	if !n.full {
		whole := t.decodeExtent(off, c.Read(off, t.cfg.NodeBytes))
		n = pin.Swap(c, n, whole, whole.chargeSize(t.cfg)).(*node)
	}
	return n, pin
}

// leafSlot returns basement j of the Full leaf n at off, clamped to its
// last basement, and, with index, its head column (nil on a materialized
// leaf); a Packed leaf is one big basement.
func (t *Tree) leafSlot(off int64, n *node, j int, index bool) ([]kv.Entry, []uint64) {
	if n.ext == nil {
		j = min(j, len(n.cuts)-2)
		return n.entries[n.cuts[j]:n.cuts[j+1]], nil
	}
	p, err := n.basement(t.cfg, min(j, len(n.slots)-1), index)
	if err != nil {
		panic(fmt.Sprintf("betree: load of basement %d at %d: %v", j, off, err))
	}
	return p.entries, p.heads
}

// readSlot returns slot j of the node at off, reading the minimum the
// configured QueryMode allows, on behalf of client c. The returned node is
// pinned; the caller unpins it with the returned pin.
func (t *Tree) readSlot(c *engine.Client, off int64, leaf bool, height, j int) (*node, *engine.Pin, slotPayload) {
	id := engine.PageID(off)
	var n *node
	var pin *engine.Pin
	if t.cfg.QueryMode == WholeNode {
		n, pin = t.ensureFullc(c, off)
	} else if obj, resident := t.pager().TryPin(c, id); resident != nil {
		n, pin = obj.(*node), resident
	} else {
		n = newPartialNode(leaf, height, t.cfg.MaxFanout)
		if t.cfg.QueryMode == MetaPlusSlot {
			// Pay for the meta region read (the node's own pivots).
			c.Read(off, t.cfg.metaCap())
		}
		// Another client may have inserted the node while we read the meta
		// region; the pager returns the canonical resident object.
		var obj interface{}
		obj, pin = t.pager().PutClean(c, (*loader)(t), id, n, n.chargeSize(t.cfg))
		n = obj.(*node)
	}
	if n.full {
		var p slotPayload
		if leaf {
			p.entries, p.heads = t.leafSlot(off, n, j, true)
		} else {
			p.buf = n.bufs[j]
			// A Packed parent stores no routes: WholeNode traversal reads the
			// child itself, so the route is unused.
			if t.cfg.Layout == Slotted {
				p.route = n.routes[j]
			}
		}
		return n, pin, p
	}
	if p := n.slots[j].Load(); p != nil {
		return n, pin, *p
	}
	stride := t.cfg.slotStride()
	p, err := decodeSlot(leaf, c.Read(off+int64(t.cfg.metaCap())+int64(j)*int64(stride), stride), nil)
	if err != nil {
		panic(fmt.Sprintf("betree: load of slot %d at %d: %v", j, off, err))
	}
	p.index()
	if n.slots[j].CompareAndSwap(nil, &p) {
		pin.Grow(c, n, int64(slotHeader+p.bytes))
	}
	return n, pin, p
}

// ---------------------------------------------------------------------------
// Point queries

// Get returns the value for key, logically applying every buffered message
// on the root-to-leaf path (newer messages live nearer the root).
func (t *Tree) Get(key []byte) ([]byte, bool) { return t.GetAs(t.owner, key) }

// GetAs is Get charged to c.
func (t *Tree) GetAs(c *engine.Client, key []byte) ([]byte, bool) {
	t.checkKey(key)
	root := t.rootN
	if root.leaf {
		i, ok := root.findEntry(key)
		if !ok {
			return nil, false
		}
		return root.entries[i].Value, true
	}

	// Collect messages top-down; stop early at an absorbing message. Only a
	// tree deeper than the array spills to the heap.
	var stack [8][]kv.Message
	levels := stack[:0]
	absorbed := false

	j := root.findChild(key)
	msgs := bufMessagesFor(root.bufs[j], key)
	levels = append(levels, msgs)
	absorbed = hasAbsorbing(msgs)

	off := root.children[j]
	height := root.height - 1
	var rt route
	if t.cfg.Layout == Slotted {
		rt = root.routes[j]
	}

	var base []byte
	baseOK := false
	for !absorbed {
		if height == 0 {
			jb := 0
			if t.cfg.Layout == Slotted {
				jb = rt.slotIndex(key)
			}
			_, pin, p := t.readSlot(c, off, true, height, jb)
			if i, ok := kv.Search(len(p.entries), p.heads, key, false, func(i int) []byte { return p.entries[i].Key }); ok {
				base, baseOK = p.entries[i].Value, true
			}
			pin.Unpin(c)
			break
		}
		var j2 int
		var next int64
		if t.cfg.QueryMode == WholeNode {
			n, pin, _ := t.readSlot(c, off, false, height, 0) // ensures full
			j2 = n.findChild(key)
			msgs = bufMessagesFor(n.bufs[j2], key)
			next = n.children[j2]
			if t.cfg.Layout == Slotted {
				rt = n.routes[j2]
			}
			pin.Unpin(c)
		} else {
			j2 = rt.slotIndex(key)
			nextPtrs := rt.ptrs
			_, pin, p := t.readSlot(c, off, false, height, j2)
			msgs = bufMessagesFor(p.buf, key)
			rt = p.route
			next = nextPtrs[j2]
			pin.Unpin(c)
		}
		levels = append(levels, msgs)
		absorbed = hasAbsorbing(msgs)
		off = next
		height--
	}

	// Apply deepest (oldest) first.
	val, ok := base, baseOK
	for i := len(levels) - 1; i >= 0; i-- {
		val, ok = kv.ApplyAll(levels[i], val, ok)
	}
	return val, ok
}

// bufMessagesFor returns b's messages for key, in seq order, as a view of b
// capped at the last of them. The view is valid for the Get that took it: a
// buffer changes only under the tree's single-writer exclusion, which a
// reader's Get is inside.
func bufMessagesFor(b buffer, key []byte) []kv.Message {
	lo, hi := b.find(key)
	return b.msgs[lo:hi:hi]
}

func hasAbsorbing(msgs []kv.Message) bool {
	for _, m := range msgs {
		if m.Kind != kv.Upsert {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Updates

func (t *Tree) checkKey(key []byte) {
	if len(key) == 0 || len(key) > t.cfg.MaxKeyBytes {
		panic(fmt.Sprintf("betree: key length %d outside (0,%d]", len(key), t.cfg.MaxKeyBytes))
	}
}

// Put inserts or replaces key.
func (t *Tree) Put(key, value []byte) {
	t.checkKey(key)
	if len(value) > t.cfg.MaxValueBytes {
		panic(fmt.Sprintf("betree: value length %d exceeds %d", len(value), t.cfg.MaxValueBytes))
	}
	t.LogicalBytesInserted += int64(len(key) + len(value))
	t.inject(kv.Message{Kind: kv.Put, Key: key, Value: value})
}

// Delete buffers a tombstone for key and reports that the message was
// accepted. (Whether the key existed is unknown until the tombstone reaches
// a leaf; use Get first if you need to know.)
func (t *Tree) Delete(key []byte) bool {
	t.checkKey(key)
	t.inject(kv.Message{Kind: kv.Tombstone, Key: key})
	return true
}

// Upsert adds delta to the 64-bit counter stored at key, creating it if
// absent — a blind read-modify-write that costs only an insert (§3).
func (t *Tree) Upsert(key []byte, delta int64) {
	t.checkKey(key)
	t.LogicalBytesInserted += int64(len(key) + 8)
	t.inject(kv.Message{Kind: kv.Upsert, Key: key, Value: kv.UpsertDelta(delta)})
}

// inject buffers m at the root as a one-message run, which copies it
// (buffer.merge, applyToLeaf).
func (t *Tree) inject(m kv.Message) {
	t.seq++
	m.Seq = t.seq
	run := []kv.Message{m}
	root := t.rootN
	if root.leaf {
		t.applyToLeaf(root, run)
		t.markDirty(t.rootPin, root)
		if root.leafBytes > t.cfg.leafCapBytes() {
			t.splitRoot()
		}
		return
	}
	root.bufs[root.findChild(m.Key)].merge(run)
	t.markDirty(t.rootPin, root)
	for t.overfullNode(root) {
		t.flushNode(t.rootPin, root)
		if len(root.children) > t.cfg.MaxFanout {
			t.splitRoot()
			root = t.rootN
		}
	}
	if len(root.children) > t.cfg.MaxFanout {
		t.splitRoot()
	}
	t.maybeCollapseRoot()
}

// overfullNode reports whether any buffer must be flushed.
func (t *Tree) overfullNode(n *node) bool {
	if n.leaf {
		return false
	}
	if t.cfg.Layout == Slotted {
		stride := t.cfg.slotStride()
		for i := range n.bufs {
			if slotHeader+n.routes[i].bytes()+n.bufs[i].bytes > stride {
				return true
			}
		}
		return false
	}
	limit := t.cfg.NodeBytes - t.cfg.maxMsgBytes() - 64
	return n.metaBytes()+4*len(n.bufs)+n.bufBytesTotal() > limit
}

// fullestBuffer returns the child index with the most pending bytes.
func fullestBuffer(n *node) int {
	best, bestBytes := 0, -1
	for i := range n.bufs {
		if n.bufs[i].bytes > bestBytes {
			best, bestBytes = i, n.bufs[i].bytes
		}
	}
	return best
}

// flushVictim picks the buffer to drain according to the configured policy.
func (t *Tree) flushVictim(n *node) int {
	if t.cfg.FlushPolicy == FlushRoundRobin {
		// Cycle, skipping empty buffers (there is a non-empty one, or the
		// node would not be overfull).
		for tries := 0; tries < len(n.bufs); tries++ {
			i := n.rrCursor % len(n.bufs)
			n.rrCursor++
			if n.bufs[i].bytes > 0 {
				return i
			}
		}
	}
	return fullestBuffer(n)
}

// flushNode moves one buffer of the pinned Full node n one level down (the
// paper's flush operation), recursing if the child overflows and splitting
// or merging children as needed. n may be left with fanout above
// MaxFanout; the caller splits it.
func (t *Tree) flushNode(pin *engine.Pin, n *node) {
	t.Flushes++
	i := t.flushVictim(n)
	moved := n.bufs[i]
	n.bufs[i] = buffer{heads: moved.heads[:0]} // the emptied column's storage is reused
	child, childPin := t.ensureFull(n.children[i])

	if child.leaf {
		t.applyToLeaf(child, moved.msgs)
		t.markDirty(childPin, child)
		switch {
		case child.leafBytes > t.cfg.leafCapBytes():
			t.splitLeafChild(n, i, childPin, child)
		case child.leafBytes < t.cfg.leafCapBytes()/8 && len(n.children) > 1:
			t.maybeMergeLeafChild(n, i, childPin, child)
		default:
			t.syncRoute(n, i, child)
			t.unpin(childPin)
		}
	} else {
		// One walk cuts the moved run at the child's pivots: each sub-run
		// ends at the first message at or past its child's upper pivot.
		for lo := 0; lo < len(moved.msgs); {
			c, hi := child.findChild(moved.msgs[lo].Key), len(moved.msgs)
			if c < len(child.pivots) {
				hi, _ = kv.Search(hi, moved.heads, child.pivots[c], false, moved.key)
			}
			child.bufs[c].merge(moved.msgs[lo:hi])
			lo = hi
		}
		t.markDirty(childPin, child)
		for t.overfullNode(child) {
			t.flushNode(childPin, child)
		}
		if len(child.children) > t.cfg.MaxFanout {
			t.splitInternalChild(n, i, childPin, child)
		} else {
			t.syncRoute(n, i, child)
			t.unpin(childPin)
		}
	}
	t.markDirty(pin, n)
}

// syncRoute refreshes the parent's copy of child i's routing info
// (Theorem 9 stores a node's pivots in its parent).
func (t *Tree) syncRoute(parent *node, i int, child *node) {
	if t.cfg.Layout != Slotted {
		return
	}
	parent.routes[i] = child.ownRoute()
}

// applyToLeaf merges a sorted message run into the leaf's entries, copying
// what it adds (a message's key and value are views of another extent).
func (t *Tree) applyToLeaf(leaf *node, msgs []kv.Message) {
	if len(msgs) == 0 {
		return
	}
	out := make([]kv.Entry, 0, len(leaf.entries)+len(msgs))
	bytes := 0
	walkLeaf(leaf.entries, msgs, func(e kv.Entry, ok, oldOK, fresh bool) bool {
		switch {
		case ok && !oldOK:
			t.items++
		case !ok && oldOK:
			t.items--
		}
		if ok {
			if fresh {
				e = e.Clone()
			}
			out = append(out, e)
			bytes += e.Size()
		}
		return true
	})
	leaf.entries = out
	leaf.leafBytes = bytes
	leaf.recut(t.basementCount())
}

// walkLeaf merges entries with msgs, both sorted by key, and calls fn in key
// order for every key either holds: e is the key with what its messages make
// of its entry's value (ok false if nothing), oldOK says it had an entry, and
// fresh that a message made e (it views the message, not the entry). fn
// returning false stops the walk.
func walkLeaf(entries []kv.Entry, msgs []kv.Message, fn func(e kv.Entry, ok, oldOK, fresh bool) bool) bool {
	i, m := 0, 0
	for i < len(entries) || m < len(msgs) {
		c := -1 // < 0: the next key is an entry's only, 0: both's, > 0: messages' only
		if i == len(entries) {
			c = 1
		} else if m < len(msgs) {
			c = kv.Compare(entries[i].Key, msgs[m].Key)
		}
		var e kv.Entry
		oldOK := c <= 0
		if oldOK {
			e = entries[i]
			i++
		} else {
			e.Key = msgs[m].Key
		}
		run := m
		if c >= 0 {
			for run++; run < len(msgs) && kv.Compare(msgs[run].Key, e.Key) == 0; run++ {
			}
		}
		var ok bool
		e.Value, ok = kv.ApplyAll(msgs[m:run], e.Value, oldOK)
		if !fn(e, ok, oldOK, run > m) {
			return false
		}
		m = run
	}
	return true
}

func (t *Tree) basementCount() int {
	if t.cfg.Layout == Slotted {
		return t.cfg.MaxFanout
	}
	return 1
}

// ---------------------------------------------------------------------------
// Structural changes

// splitLeafChild splits the pinned overfull leaf child (parent index i)
// into as many half-full leaves as its content needs (a single flush can
// deliver up to a whole node's worth of messages to one leaf, so one
// halving is not always enough) and installs the new siblings. Unpins the
// child and the new leaves.
func (t *Tree) splitLeafChild(parent *node, i int, childPin *engine.Pin, child *node) {
	chunks := chunkEntries(child.entries, t.cfg.leafCapBytes()/2)
	// First chunk stays in the child.
	child.entries = chunks[0]
	child.leafBytes = entryBytes(chunks[0])
	child.recut(t.basementCount())
	t.syncRoute(parent, i, child)
	t.release(childPin, child)
	// Remaining chunks become new right siblings, installed left to right.
	at := i
	for _, chunk := range chunks[1:] {
		right := newLeafNode()
		right.entries = append(right.entries, chunk...)
		right.leafBytes = entryBytes(chunk)
		right.recut(t.basementCount())
		pivot := append([]byte(nil), chunk[0].Key...)
		rightOff := t.allocNode()
		t.installChild(parent, at, rightOff, pivot)
		if t.cfg.Layout == Slotted {
			parent.routes[at+1] = right.ownRoute()
		}
		t.pager().Put(t.owner, (*loader)(t), engine.PageID(rightOff), right, right.chargeSize(t.cfg)).Unpin(t.owner)
		at++
	}
}

// chunkEntries partitions entries into runs of at most targetBytes each
// (every run non-empty; single oversized entries get their own run).
func chunkEntries(entries []kv.Entry, targetBytes int) [][]kv.Entry {
	var chunks [][]kv.Entry
	start, acc := 0, 0
	for i, e := range entries {
		if acc > 0 && acc+e.Size() > targetBytes {
			chunks = append(chunks, entries[start:i:i])
			start, acc = i, 0
		}
		acc += e.Size()
	}
	chunks = append(chunks, entries[start:len(entries):len(entries)])
	return chunks
}

func entryBytes(entries []kv.Entry) int {
	s := 0
	for _, e := range entries {
		s += e.Size()
	}
	return s
}

// installChild inserts a new child (with empty buffer) at parent index i+1.
func (t *Tree) installChild(parent *node, i int, childOff int64, pivot []byte) {
	parent.children = append(parent.children, 0)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = childOff
	parent.pivots = append(parent.pivots, nil)
	copy(parent.pivots[i+1:], parent.pivots[i:])
	parent.pivots[i] = pivot
	parent.pivotHeads = slices.Insert(parent.pivotHeads, i, kv.Head(pivot))
	parent.bufs = append(parent.bufs, buffer{})
	copy(parent.bufs[i+2:], parent.bufs[i+1:])
	parent.bufs[i+1] = buffer{}
	if t.cfg.Layout == Slotted {
		parent.routes = append(parent.routes, route{})
		copy(parent.routes[i+2:], parent.routes[i+1:])
		parent.routes[i+1] = route{}
	}
}

// removeChild removes child i+1 and pivot i from the parent.
func (t *Tree) removeChild(parent *node, i int) {
	parent.children = append(parent.children[:i+1], parent.children[i+2:]...)
	parent.pivots = append(parent.pivots[:i], parent.pivots[i+1:]...)
	parent.pivotHeads = append(parent.pivotHeads[:i], parent.pivotHeads[i+1:]...)
	parent.bufs = append(parent.bufs[:i+1], parent.bufs[i+2:]...)
	if t.cfg.Layout == Slotted {
		parent.routes = append(parent.routes[:i+1], parent.routes[i+2:]...)
	}
}

// maybeMergeLeafChild merges an underfull leaf child with its right (or,
// for the last child, left) neighbor when the result fits comfortably: the
// left leaf takes the right one's entries and its buffer the right one's
// messages, and the right leaf is freed. Unpins everything it pins,
// including the child.
func (t *Tree) maybeMergeLeafChild(parent *node, i int, childPin *engine.Pin, child *node) {
	j := i + 1
	if j == len(parent.children) {
		j = i - 1
	}
	if j >= 0 {
		sib, sibPin := t.ensureFull(parent.children[j])
		if sib.leaf && child.leafBytes+sib.leafBytes <= t.cfg.leafCapBytes()*3/4 {
			l, left, right, rightPin := i, child, sib, sibPin
			if j < i {
				l, left, right, rightPin = j, sib, child, childPin
			}
			for _, e := range right.entries { // copies: right's extent goes with right
				left.entries = append(left.entries, e.Clone())
			}
			left.leafBytes += right.leafBytes
			left.recut(t.basementCount())
			parent.bufs[l].merge(parent.bufs[l+1].msgs)
			t.removeChild(parent, l)
			t.syncRoute(parent, l, left)
			// The sibling is released before the child, whichever side it
			// is on: what the pager evicts depends on whether the freed leaf
			// is still charged when the kept one grows.
			for _, pin := range [2]*engine.Pin{sibPin, childPin} {
				if pin == rightPin {
					off := int64(pin.ID())
					t.unpin(pin)
					t.freeNode(off)
				} else {
					t.release(pin, left)
				}
			}
			return
		}
		t.unpin(sibPin)
	}
	t.syncRoute(parent, i, child)
	t.unpin(childPin)
}

// splitInternalChild splits the pinned internal child (parent index i) into
// as many pieces as needed to bring every piece within MaxFanout (a flush
// that multiway-split several leaves below can leave the child more than
// one over the bound), partitioning its buffers. Unpins the child and the
// new siblings.
func (t *Tree) splitInternalChild(parent *node, i int, childPin *engine.Pin, child *node) {
	n := len(child.children)
	groups := (n + t.cfg.MaxFanout - 1) / t.cfg.MaxFanout
	if groups < 2 {
		groups = 2
	}
	cuts := []int{0}
	base, ext := n/groups, n%groups
	pos := 0
	for g := 0; g < groups; g++ {
		sz := base
		if g < ext {
			sz++
		}
		pos += sz
		cuts = append(cuts, pos)
	}

	origChildren := append([]int64(nil), child.children...)
	origPivots := append([][]byte(nil), child.pivots...)
	origHeads := append([]uint64(nil), child.pivotHeads...)
	origBufs := append([]buffer(nil), child.bufs...)
	var origRoutes []route
	if t.cfg.Layout == Slotted {
		origRoutes = append(origRoutes, child.routes...)
	}

	carve := func(dst *node, lo, hi int) {
		dst.children = append([]int64(nil), origChildren[lo:hi]...)
		dst.pivots = append([][]byte(nil), origPivots[lo:hi-1]...)
		dst.pivotHeads = append([]uint64(nil), origHeads[lo:hi-1]...)
		dst.bufs = append([]buffer(nil), origBufs[lo:hi]...)
		if t.cfg.Layout == Slotted {
			dst.routes = append([]route(nil), origRoutes[lo:hi]...)
		}
	}
	// The first group stays in the child.
	carve(child, cuts[0], cuts[1])
	t.syncRoute(parent, i, child)
	t.release(childPin, child)

	at := i
	for g := 1; g < groups; g++ {
		right := newInternalNode(child.height)
		carve(right, cuts[g], cuts[g+1])
		pivot := append([]byte(nil), origPivots[cuts[g]-1]...)
		rightOff := t.allocNode()
		t.installChild(parent, at, rightOff, pivot)
		if t.cfg.Layout == Slotted {
			parent.routes[at+1] = right.ownRoute()
		}
		t.pager().Put(t.owner, (*loader)(t), engine.PageID(rightOff), right, right.chargeSize(t.cfg)).Unpin(t.owner)
		at++
	}
}

// splitRoot splits a leaf root, or an over-fanout internal one, under a new
// root.
func (t *Tree) splitRoot() {
	old, oldPin := t.rootN, t.rootPin
	newRoot := newInternalNode(old.height + 1)
	newRoot.children = []int64{t.root}
	newRoot.bufs = []buffer{{}}
	if t.cfg.Layout == Slotted {
		newRoot.routes = []route{{}}
	}
	newOff := t.allocNode()
	newPin := t.pager().Put(t.owner, (*loader)(t), engine.PageID(newOff), newRoot, newRoot.chargeSize(t.cfg))
	oldPin.Hold() // the split unpins it
	if old.leaf {
		t.splitLeafChild(newRoot, 0, oldPin, old)
	} else {
		t.splitInternalChild(newRoot, 0, oldPin, old)
	}
	t.markDirty(newPin, newRoot)
	t.unpin(oldPin) // drop the long-lived root pin
	t.root, t.rootN, t.rootPin = newOff, newRoot, newPin
}

// Settle drains every buffered message down to the leaves, so that Items
// is exact and all state lives in leaf entries. Experiments use it to close
// a load phase; it performs the same flushes the workload would eventually
// pay for.
func (t *Tree) Settle() {
	for {
		root := t.rootN
		if root.leaf {
			return
		}
		t.settleSubtree(t.rootPin, root)
		if len(root.children) > t.cfg.MaxFanout {
			t.splitRoot()
			continue
		}
		t.maybeCollapseRoot()
		return
	}
}

// settleSubtree drains the pinned Full node n and recursively its children.
// n may be left with fanout above MaxFanout; the caller splits it.
func (t *Tree) settleSubtree(pin *engine.Pin, n *node) {
	if n.leaf {
		return
	}
	for n.bufBytesTotal() > 0 {
		t.flushNode(pin, n)
	}
	for i := 0; i < len(n.children); i++ {
		child, childPin := t.ensureFull(n.children[i])
		if child.leaf {
			t.unpin(childPin)
			continue
		}
		t.settleSubtree(childPin, child)
		if len(child.children) > t.cfg.MaxFanout {
			t.splitInternalChild(n, i, childPin, child) // unpins child
		} else {
			t.syncRoute(n, i, child)
			t.markDirty(pin, n)
			t.unpin(childPin)
		}
	}
}

// maybeCollapseRoot replaces a single-child internal root whose buffer is
// empty with its child.
func (t *Tree) maybeCollapseRoot() {
	root := t.rootN
	for !root.leaf && len(root.children) == 1 && root.bufs[0].bytes == 0 {
		childOff := root.children[0]
		child, childPin := t.ensureFull(childOff) // pinned: becomes the root pin
		oldOff := t.root
		t.unpin(t.rootPin)
		t.freeNode(oldOff)
		t.root, t.rootN, t.rootPin = childOff, child, childPin
		root = child
	}
}
