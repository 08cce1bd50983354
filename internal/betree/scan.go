// Range queries for the Bε-tree.
//
// A range query must merge the leaf entries in [lo, hi) with every buffered
// message for that range on the paths above them. The scan descends
// recursively, partitioning the pending message stream by child and merging
// in each node's buffered messages; at a leaf the accumulated messages are
// applied to the entries and the results emitted in key order. Range scans
// read whole nodes — the paper's range-query bound is O(1+ℓ/B) IOs of
// (1+αB) each regardless of node organization — but decode only the leaf
// basements they emit from: a lazy leaf's pending messages are cut per
// basement by the leaf's route in its parent.

package betree

import (
	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Scan calls fn for each live entry with lo <= key < hi in key order (hi
// nil means unbounded). fn returning false stops the scan early.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	t.ScanAs(t.owner, lo, hi, fn)
}

// ScanN collects up to n entries starting at lo.
func (t *Tree) ScanN(lo []byte, n int) []kv.Entry {
	out := make([]kv.Entry, 0, n)
	t.Scan(lo, nil, func(k, v []byte) bool {
		out = append(out, kv.Entry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		return len(out) < n
	})
	return out
}

// scanNode emits the live entries of the subtree at off restricted to
// [lo, hi), under the pending messages inherited from ancestors (sorted by
// key then seq). The node handle n may be nil, in which case it is loaded;
// rt is its route in its parent (Slotted layout). Returns false if fn
// stopped the scan.
func (t *Tree) scanNode(c *engine.Client, off int64, n *node, rt route, lo, hi []byte, pending []kv.Message, fn func(k, v []byte) bool) bool {
	if n == nil {
		var pin *engine.Pin
		n, pin = t.ensureFullc(c, off)
		defer pin.Unpin(c)
	}
	if n.leaf {
		if n.ext == nil {
			return emitLeaf(n.entries, pending, lo, hi, fn)
		}
		return t.emitBasements(off, n, rt, pending, lo, hi, fn)
	}
	first, last := childRange(n, lo, hi)
	for i := first; i <= last; i++ {
		// Messages for child i: ancestors' pending plus this node's buffer,
		// both restricted to [lo, hi) and this child's key range.
		clo, chi := lo, hi
		if i > 0 && (clo == nil || kv.Compare(n.pivots[i-1], clo) > 0) {
			clo = n.pivots[i-1]
		}
		if i < len(n.pivots) && (chi == nil || kv.Compare(n.pivots[i], chi) < 0) {
			chi = n.pivots[i]
		}
		childPending := mergeMessages(
			sliceRange(pending, nil, clo, chi),
			sliceRange(n.bufs[i].msgs, n.bufs[i].heads, clo, chi),
		)
		var crt route
		if t.cfg.Layout == Slotted {
			crt = n.routes[i]
		}
		if !t.scanNode(c, n.children[i], nil, crt, lo, hi, childPending, fn) {
			return false
		}
	}
	return true
}

// emitBasements is emitLeaf over the lazy leaf n at off, one basement at a
// time from the first that can hold lo: basement j holds the keys in
// [rt.keys[j-1], rt.keys[j]), so it takes the pending messages in that range,
// and a scan that fn stops decodes no basement past the one it stopped in.
func (t *Tree) emitBasements(off int64, n *node, rt route, pending []kv.Message, lo, hi []byte, fn func(k, v []byte) bool) bool {
	for j := min(rt.slotIndex(lo), len(n.slots)-1); j < len(n.slots); j++ {
		var blo, bhi []byte
		if j > 0 {
			if blo = rt.keys[j-1]; hi != nil && kv.Compare(blo, hi) >= 0 {
				break
			}
		}
		if j < len(rt.keys) {
			bhi = rt.keys[j]
		}
		ents, _ := t.leafSlot(off, n, j, false)
		if !emitLeaf(ents, sliceRange(pending, nil, blo, bhi), lo, hi, fn) {
			return false
		}
	}
	return true
}

// childRange returns the inclusive child index range overlapping [lo, hi).
func childRange(n *node, lo, hi []byte) (int, int) {
	first := 0
	if lo != nil {
		first = n.findChild(lo)
	}
	last := len(n.children) - 1
	if hi != nil {
		last, _ = kv.Search(len(n.pivots), n.pivotHeads, hi, false, n.pivot)
	}
	return first, last
}

// sliceRange returns the sub-slice of sorted messages with lo <= key < hi;
// heads is their head column, or nil.
func sliceRange(msgs []kv.Message, heads []uint64, lo, hi []byte) []kv.Message {
	key := func(i int) []byte { return msgs[i].Key }
	start, end := 0, len(msgs)
	if lo != nil {
		start, _ = kv.Search(len(msgs), heads, lo, false, key)
	}
	if hi != nil {
		end, _ = kv.Search(len(msgs), heads, hi, false, key)
	}
	return msgs[start:end]
}

// mergeMessages merges two (key, seq)-sorted message runs. Ancestor
// messages (a) are newer than node-local ones (b) for equal keys, and seq
// order encodes exactly that, so a plain merge by (key, seq) is correct.
// It is not buffer.merge: a scan's run lives for one scan, so it copies no
// message, and it must not write the buffers other readers share.
func mergeMessages(a, b []kv.Message) []kv.Message {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]kv.Message, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		c := kv.Compare(a[i].Key, b[j].Key)
		if c < 0 || (c == 0 && a[i].Seq < b[j].Seq) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// emitLeaf merges pending messages into the leaf's entries over [lo, hi)
// and emits live results in key order.
func emitLeaf(entries []kv.Entry, pending []kv.Message, lo, hi []byte, fn func(k, v []byte) bool) bool {
	return walkLeaf(entries, pending, func(e kv.Entry, ok, _, _ bool) bool {
		if !ok || lo != nil && kv.Compare(e.Key, lo) < 0 || hi != nil && kv.Compare(e.Key, hi) >= 0 {
			return true
		}
		return fn(e.Key, e.Value)
	})
}
