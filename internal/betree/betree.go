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
// The Theorem 9 optimizations are selected by Config (see config.go):
// per-child buffer segments with a B/F bound and partial (one-slot) query
// IOs; pivots stored in the parent so queries cost one IO of ~B/F+F per
// level; leaves organized as basement blocks. In place of the paper's
// weight-balanced subtree rebuilds, structural balance uses classic
// split/merge with byte thresholds — all leaves stay at the same depth and
// nonroot fanout stays within a constant factor of the target, which is the
// property the rebuild scheme exists to guarantee (DESIGN.md documents the
// substitution); internal-node underflow is handled lazily (root collapse),
// which suffices for the paper's workloads.
package betree

import (
	"fmt"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Tree is a disk-backed Bε-tree on an engine. Mutations are single-writer
// (they run on the engine's owner client); concurrent sim processes read
// through per-client Sessions, sharing nodes via the engine's pager.
type Tree struct {
	cfg   Config
	eng   *engine.Engine
	owner *engine.Client
	root  int64
	rootN *node // root stays pinned
	items int
	nodes int
	seq   uint64

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
	t.pager().Put(t.owner, (*loader)(t), engine.PageID(t.root), t.rootN, t.rootN.chargeSize(cfg))
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
	buf := make([]byte, t.cfg.NodeBytes)
	c.ReadAt(buf, int64(id))
	n, err := decodeFull(t.cfg, buf)
	if err != nil {
		panic(fmt.Sprintf("betree: load of node at %d: %v", id, err))
	}
	return n, n.chargeSize(t.cfg)
}

// Store implements engine.Loader.
func (l *loader) Store(c *engine.Client, id engine.PageID, obj interface{}) {
	t := (*Tree)(l)
	n := obj.(*node)
	if !n.full {
		panic("betree: write-back of partial node")
	}
	c.WriteAt(n.encode(t.cfg), int64(id))
}

// StoreSize implements engine.StoreSizer: nodes encode to at most the
// configured node size (exactly, under the slotted layout). The bound
// keeps the pager's dirty-set accounting conservative, which is the safe
// direction for the durability layer's journal-capacity trigger.
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

func (t *Tree) unpin(off int64) { t.unpinc(t.owner, off) }

func (t *Tree) unpinc(c *engine.Client, off int64) { t.pager().Unpin(c, engine.PageID(off)) }

func (t *Tree) markDirty(off int64, n *node) {
	t.pager().MarkDirty(t.owner, engine.PageID(off), n.chargeSize(t.cfg))
}

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

// ensureFull returns the node at off with all content resident, pinned on
// the owner client (single-writer paths).
func (t *Tree) ensureFull(off int64) *node { return t.ensureFullc(t.owner, off) }

// ensureFullc returns the node at off with all content resident, pinned on
// behalf of client c. Charges one whole-extent read if anything was
// missing. Cold misses go through the pager's Get so the busy latch makes
// concurrent clients share a single load; the partial→full upgrade is
// idempotent under the simulator's cooperative interleaving.
func (t *Tree) ensureFullc(c *engine.Client, off int64) *node {
	if obj, ok := t.pager().TryGet(c, engine.PageID(off)); ok {
		n := obj.(*node)
		if n.full {
			return n
		}
		buf := make([]byte, t.cfg.NodeBytes)
		c.ReadAt(buf, off)
		dec, err := decodeFull(t.cfg, buf)
		if err != nil {
			panic(fmt.Sprintf("betree: load of node at %d: %v", off, err))
		}
		*n = *dec // upgrade in place so existing references stay valid
		t.pager().Resize(c, engine.PageID(off), n.chargeSize(t.cfg))
		return n
	}
	return t.pager().Get(c, (*loader)(t), engine.PageID(off)).(*node)
}

// readSlot returns slot j of the node at off, reading the minimum the
// configured QueryMode allows, on behalf of client c. The returned node is
// pinned; the caller unpins via t.unpinc(c, off).
func (t *Tree) readSlot(c *engine.Client, off int64, leaf bool, height, j int) (*node, slotPayload) {
	if t.cfg.QueryMode == WholeNode {
		n := t.ensureFullc(c, off)
		var p slotPayload
		if leaf {
			p.entries = n.entries[n.cuts[minInt(j, len(n.cuts)-2)]:n.cuts[minInt(j, len(n.cuts)-2)+1]]
			if t.cfg.Layout == Packed {
				p.entries = n.entries // packed leaves are one big basement
			}
		} else {
			p.msgs = n.bufs[j].msgs
			if t.cfg.Layout == Slotted {
				p.route = n.routes[j]
			} else {
				// Packed layout stores no parent-side routes; synthesize the
				// child's route from nothing — WholeNode traversal reads the
				// child itself, so the route is unused.
			}
		}
		return n, p
	}

	var n *node
	if obj, ok := t.pager().TryGet(c, engine.PageID(off)); ok {
		n = obj.(*node)
	} else {
		n = newPartialNode(leaf, height)
		if t.cfg.QueryMode == MetaPlusSlot {
			// Pay for the meta region read (the node's own pivots).
			mbuf := make([]byte, t.cfg.metaCap())
			c.ReadAt(mbuf, off)
		}
		// Another client may have inserted the node while we read the meta
		// region; the pager returns the canonical resident object.
		n = t.pager().PutClean(c, (*loader)(t), engine.PageID(off), n, n.chargeSize(t.cfg)).(*node)
	}
	if n.full {
		var p slotPayload
		if leaf {
			j = minInt(j, len(n.cuts)-2)
			p.entries = n.entries[n.cuts[j]:n.cuts[j+1]]
		} else {
			p.msgs = n.bufs[j].msgs
			p.route = n.routes[j]
		}
		return n, p
	}
	if p, ok := n.partial[j]; ok {
		return n, p
	}
	stride := t.cfg.slotStride()
	sbuf := make([]byte, stride)
	c.ReadAt(sbuf, off+int64(t.cfg.metaCap())+int64(j)*int64(stride))
	p, err := decodeSlot(leaf, sbuf)
	if err != nil {
		panic(fmt.Sprintf("betree: load of slot %d at %d: %v", j, off, err))
	}
	n.partial[j] = p
	t.pager().Resize(c, engine.PageID(off), n.chargeSize(t.cfg))
	return n, p
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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

	// Collect messages top-down; stop early at an absorbing message.
	var levels [][]kv.Message
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
			_, p := t.readSlot(c, off, true, height, jb)
			for _, e := range p.entries {
				if kv.Compare(e.Key, key) == 0 {
					base, baseOK = e.Value, true
					break
				}
			}
			t.unpinc(c, off)
			break
		}
		var j2 int
		var next int64
		if t.cfg.QueryMode == WholeNode {
			n, _ := t.readSlot(c, off, false, height, 0) // ensures full
			j2 = n.findChild(key)
			msgs = bufMessagesFor(n.bufs[j2], key)
			next = n.children[j2]
			if t.cfg.Layout == Slotted {
				rt = n.routes[j2]
			}
			t.unpinc(c, off)
		} else {
			j2 = rt.slotIndex(key)
			nextPtrs := rt.ptrs
			_, p := t.readSlot(c, off, false, height, j2)
			msgs = bufMessagesFor(buffer{msgs: p.msgs}, key)
			rt = p.route
			next = nextPtrs[j2]
			t.unpinc(c, off)
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

// bufMessagesFor copies the messages for key out of b (they are already in
// seq order).
func bufMessagesFor(b buffer, key []byte) []kv.Message {
	lo, hi := b.find(key)
	if lo == hi {
		return nil
	}
	return append([]kv.Message(nil), b.msgs[lo:hi]...)
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
	t.inject(kv.Message{Kind: kv.Put, Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)})
}

// Delete buffers a tombstone for key and reports that the message was
// accepted. (Whether the key existed is unknown until the tombstone reaches
// a leaf; use Get first if you need to know.)
func (t *Tree) Delete(key []byte) bool {
	t.checkKey(key)
	t.inject(kv.Message{Kind: kv.Tombstone, Key: append([]byte(nil), key...)})
	return true
}

// Upsert adds delta to the 64-bit counter stored at key, creating it if
// absent — a blind read-modify-write that costs only an insert (§3).
func (t *Tree) Upsert(key []byte, delta int64) {
	t.checkKey(key)
	t.LogicalBytesInserted += int64(len(key) + 8)
	t.inject(kv.Message{Kind: kv.Upsert, Key: append([]byte(nil), key...), Value: kv.UpsertDelta(delta)})
}

func (t *Tree) inject(m kv.Message) {
	t.seq++
	m.Seq = t.seq
	root := t.rootN
	if root.leaf {
		t.applyToLeaf(root, []kv.Message{m})
		t.markDirty(t.root, root)
		if root.leafBytes > t.cfg.leafCapBytes() {
			t.splitRootLeaf()
		}
		return
	}
	j := root.findChild(m.Key)
	root.bufs[j].add(m)
	t.markDirty(t.root, root)
	for t.overfullNode(root) {
		t.flushNode(t.root, root)
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
func (t *Tree) flushNode(off int64, n *node) {
	t.Flushes++
	i := t.flushVictim(n)
	moved := n.bufs[i].msgs
	n.bufs[i] = buffer{}
	childOff := n.children[i]
	child := t.ensureFull(childOff)

	if child.leaf {
		t.applyToLeaf(child, moved)
		t.markDirty(childOff, child)
		switch {
		case child.leafBytes > t.cfg.leafCapBytes():
			t.splitLeafChild(off, n, i, childOff, child)
		case child.leafBytes < t.cfg.leafCapBytes()/8 && len(n.children) > 1:
			t.maybeMergeLeafChild(off, n, i, childOff, child)
		default:
			t.syncRoute(n, i, child)
			t.unpin(childOff)
		}
	} else {
		for _, m := range moved {
			child.bufs[child.findChild(m.Key)].add(m)
		}
		t.markDirty(childOff, child)
		for t.overfullNode(child) {
			t.flushNode(childOff, child)
		}
		if len(child.children) > t.cfg.MaxFanout {
			t.splitInternalChild(off, n, i, childOff, child)
		} else {
			t.syncRoute(n, i, child)
			t.unpin(childOff)
		}
	}
	t.markDirty(off, n)
}

// syncRoute refreshes the parent's copy of child i's routing info
// (Theorem 9 stores a node's pivots in its parent).
func (t *Tree) syncRoute(parent *node, i int, child *node) {
	if t.cfg.Layout != Slotted {
		return
	}
	parent.routes[i] = child.ownRoute()
}

// applyToLeaf merges a sorted message run into the leaf's entries.
func (t *Tree) applyToLeaf(leaf *node, msgs []kv.Message) {
	if len(msgs) == 0 {
		return
	}
	out := make([]kv.Entry, 0, len(leaf.entries)+len(msgs))
	bytes := 0
	i := 0
	m := 0
	for m < len(msgs) {
		key := msgs[m].Key
		// Copy entries before key.
		for i < len(leaf.entries) && kv.Compare(leaf.entries[i].Key, key) < 0 {
			out = append(out, leaf.entries[i])
			bytes += leaf.entries[i].Size()
			i++
		}
		var old []byte
		oldOK := false
		if i < len(leaf.entries) && kv.Compare(leaf.entries[i].Key, key) == 0 {
			old, oldOK = leaf.entries[i].Value, true
			i++
		}
		run := m
		for run < len(msgs) && kv.Compare(msgs[run].Key, key) == 0 {
			run++
		}
		val, ok := kv.ApplyAll(msgs[m:run], old, oldOK)
		m = run
		switch {
		case ok && !oldOK:
			t.items++
		case !ok && oldOK:
			t.items--
		}
		if ok {
			out = append(out, kv.Entry{Key: key, Value: val})
			bytes += kv.EncodedEntrySize(key, val)
		}
	}
	for i < len(leaf.entries) {
		out = append(out, leaf.entries[i])
		bytes += leaf.entries[i].Size()
		i++
	}
	leaf.entries = out
	leaf.leafBytes = bytes
	leaf.recut(t.basementCount())
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
func (t *Tree) splitLeafChild(parentOff int64, parent *node, i int, childOff int64, child *node) {
	chunks := chunkEntries(child.entries, t.cfg.leafCapBytes()/2)
	// First chunk stays in the child.
	child.entries = chunks[0]
	child.leafBytes = entryBytes(chunks[0])
	child.recut(t.basementCount())
	t.syncRoute(parent, i, child)
	t.markDirty(childOff, child)
	t.unpin(childOff)
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
		t.pager().Put(t.owner, (*loader)(t), engine.PageID(rightOff), right, right.chargeSize(t.cfg))
		t.pager().Unpin(t.owner, engine.PageID(rightOff))
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
	parent.bufs = append(parent.bufs[:i+1], parent.bufs[i+2:]...)
	if t.cfg.Layout == Slotted {
		parent.routes = append(parent.routes[:i+1], parent.routes[i+2:]...)
	}
}

// maybeMergeLeafChild merges an underfull leaf child with its right (or
// left) neighbor when the result fits comfortably. Unpins everything it
// pins, including the child.
func (t *Tree) maybeMergeLeafChild(parentOff int64, parent *node, i int, childOff int64, child *node) {
	// Prefer the right neighbor.
	if i+1 < len(parent.children) {
		sibOff := parent.children[i+1]
		sib := t.ensureFull(sibOff)
		if sib.leaf && child.leafBytes+sib.leafBytes <= t.cfg.leafCapBytes()*3/4 {
			child.entries = append(child.entries, sib.entries...)
			child.leafBytes += sib.leafBytes
			child.recut(t.basementCount())
			// Fold the sibling's pending buffer into the child's.
			for _, m := range parent.bufs[i+1].msgs {
				parent.bufs[i].add(m)
			}
			t.removeChild(parent, i)
			t.syncRoute(parent, i, child)
			t.unpin(sibOff)
			t.freeNode(sibOff)
			t.markDirty(childOff, child)
			t.unpin(childOff)
			return
		}
		t.unpin(sibOff)
	} else if i > 0 {
		sibOff := parent.children[i-1]
		sib := t.ensureFull(sibOff)
		if sib.leaf && child.leafBytes+sib.leafBytes <= t.cfg.leafCapBytes()*3/4 {
			sib.entries = append(sib.entries, child.entries...)
			sib.leafBytes += child.leafBytes
			sib.recut(t.basementCount())
			for _, m := range parent.bufs[i].msgs {
				parent.bufs[i-1].add(m)
			}
			t.removeChild(parent, i-1)
			t.syncRoute(parent, i-1, sib)
			t.markDirty(sibOff, sib)
			t.unpin(sibOff)
			t.unpin(childOff)
			t.freeNode(childOff)
			return
		}
		t.unpin(sibOff)
	}
	t.syncRoute(parent, i, child)
	t.unpin(childOff)
}

// splitInternalChild splits the pinned internal child (parent index i) into
// as many pieces as needed to bring every piece within MaxFanout (a flush
// that multiway-split several leaves below can leave the child more than
// one over the bound), partitioning its buffers. Unpins the child and the
// new siblings.
func (t *Tree) splitInternalChild(parentOff int64, parent *node, i int, childOff int64, child *node) {
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
	origBufs := append([]buffer(nil), child.bufs...)
	var origRoutes []route
	if t.cfg.Layout == Slotted {
		origRoutes = append(origRoutes, child.routes...)
	}

	carve := func(dst *node, lo, hi int) {
		dst.children = append([]int64(nil), origChildren[lo:hi]...)
		dst.pivots = append([][]byte(nil), origPivots[lo:hi-1]...)
		dst.bufs = append([]buffer(nil), origBufs[lo:hi]...)
		if t.cfg.Layout == Slotted {
			dst.routes = append([]route(nil), origRoutes[lo:hi]...)
		}
	}
	// The first group stays in the child.
	carve(child, cuts[0], cuts[1])
	t.syncRoute(parent, i, child)
	t.markDirty(childOff, child)
	t.unpin(childOff)

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
		t.pager().Put(t.owner, (*loader)(t), engine.PageID(rightOff), right, right.chargeSize(t.cfg))
		t.pager().Unpin(t.owner, engine.PageID(rightOff))
		at++
	}
}

// splitRootLeaf splits a leaf root into two leaves under a new internal
// root.
func (t *Tree) splitRootLeaf() {
	old := t.rootN
	oldOff := t.root
	newRoot := newInternalNode(1)
	newRoot.children = []int64{oldOff}
	newRoot.bufs = []buffer{{}}
	if t.cfg.Layout == Slotted {
		newRoot.routes = []route{{}}
	}
	newOff := t.allocNode()
	t.pager().Put(t.owner, (*loader)(t), engine.PageID(newOff), newRoot, newRoot.chargeSize(t.cfg))
	t.pager().Pin(engine.PageID(oldOff)) // splitLeafChild unpins it
	t.splitLeafChild(newOff, newRoot, 0, oldOff, old)
	t.markDirty(newOff, newRoot)
	t.unpin(oldOff) // drop the long-lived root pin
	t.root = newOff
	t.rootN = newRoot
}

// splitRoot splits an over-fanout internal root under a new root.
func (t *Tree) splitRoot() {
	old := t.rootN
	oldOff := t.root
	newRoot := newInternalNode(old.height + 1)
	newRoot.children = []int64{oldOff}
	newRoot.bufs = []buffer{{}}
	if t.cfg.Layout == Slotted {
		newRoot.routes = []route{{}}
	}
	newOff := t.allocNode()
	t.pager().Put(t.owner, (*loader)(t), engine.PageID(newOff), newRoot, newRoot.chargeSize(t.cfg))
	t.pager().Pin(engine.PageID(oldOff)) // splitInternalChild unpins it
	t.splitInternalChild(newOff, newRoot, 0, oldOff, old)
	t.markDirty(newOff, newRoot)
	t.unpin(oldOff) // drop the long-lived root pin
	t.root = newOff
	t.rootN = newRoot
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
		t.settleSubtree(t.root, root)
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
func (t *Tree) settleSubtree(off int64, n *node) {
	if n.leaf {
		return
	}
	for n.bufBytesTotal() > 0 {
		t.flushNode(off, n)
	}
	for i := 0; i < len(n.children); i++ {
		childOff := n.children[i]
		child := t.ensureFull(childOff)
		if child.leaf {
			t.unpin(childOff)
			continue
		}
		t.settleSubtree(childOff, child)
		if len(child.children) > t.cfg.MaxFanout {
			t.splitInternalChild(off, n, i, childOff, child) // unpins child
		} else {
			t.syncRoute(n, i, child)
			t.markDirty(off, n)
			t.unpin(childOff)
		}
	}
}

// maybeCollapseRoot replaces a single-child internal root whose buffer is
// empty with its child.
func (t *Tree) maybeCollapseRoot() {
	root := t.rootN
	for !root.leaf && len(root.children) == 1 && root.bufs[0].bytes == 0 {
		childOff := root.children[0]
		child := t.ensureFull(childOff) // pinned: becomes the root pin
		oldOff := t.root
		t.unpin(oldOff)
		t.freeNode(oldOff)
		t.root = childOff
		t.rootN = child
		root = child
	}
}
