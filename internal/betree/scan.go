// Range queries for the Bε-tree.
//
// A range query must merge the leaf entries in [lo, hi) with every buffered
// message for that range on the paths above them. The scan descends
// recursively, partitioning the pending message stream by child and merging
// in each node's buffered messages; at a leaf the accumulated messages are
// applied to the entries and the results emitted in key order. Range scans
// read whole nodes — the paper's range-query bound is O(1+ℓ/B) IOs of
// (1+αB) each regardless of node organization.

package betree

import (
	"sort"

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
// key then seq). The node handle n may be nil, in which case it is loaded.
// Returns false if fn stopped the scan.
func (t *Tree) scanNode(c *engine.Client, off int64, n *node, lo, hi []byte, pending []kv.Message, fn func(k, v []byte) bool) bool {
	owned := false
	if n == nil {
		n = t.ensureFullc(c, off)
		owned = true
	}
	if owned {
		defer t.unpinc(c, off)
	}
	if n.leaf {
		return emitLeaf(n.entries, pending, lo, hi, fn)
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
			sliceRange(pending, clo, chi),
			sliceRange(n.bufs[i].msgs, clo, chi),
		)
		if !t.scanNode(c, n.children[i], nil, lo, hi, childPending, fn) {
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
		last = sort.Search(len(n.pivots), func(i int) bool {
			return kv.Compare(hi, n.pivots[i]) <= 0
		})
	}
	return first, last
}

// sliceRange returns the sub-slice of sorted messages with lo <= key < hi.
func sliceRange(msgs []kv.Message, lo, hi []byte) []kv.Message {
	start := 0
	if lo != nil {
		start = sort.Search(len(msgs), func(i int) bool {
			return kv.Compare(msgs[i].Key, lo) >= 0
		})
	}
	end := len(msgs)
	if hi != nil {
		end = sort.Search(len(msgs), func(i int) bool {
			return kv.Compare(msgs[i].Key, hi) >= 0
		})
	}
	return msgs[start:end]
}

// mergeMessages merges two (key, seq)-sorted message runs. Ancestor
// messages (a) are newer than node-local ones (b) for equal keys, and seq
// order encodes exactly that, so a plain merge by (key, seq) is correct.
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
	inRange := func(k []byte) bool {
		if lo != nil && kv.Compare(k, lo) < 0 {
			return false
		}
		if hi != nil && kv.Compare(k, hi) >= 0 {
			return false
		}
		return true
	}
	i, m := 0, 0
	for i < len(entries) || m < len(pending) {
		var key []byte
		switch {
		case m >= len(pending):
			key = entries[i].Key
		case i >= len(entries):
			key = pending[m].Key
		case kv.Compare(entries[i].Key, pending[m].Key) <= 0:
			key = entries[i].Key
		default:
			key = pending[m].Key
		}
		var old []byte
		oldOK := false
		if i < len(entries) && kv.Compare(entries[i].Key, key) == 0 {
			old, oldOK = entries[i].Value, true
			i++
		}
		run := m
		for run < len(pending) && kv.Compare(pending[run].Key, key) == 0 {
			run++
		}
		val, ok := kv.ApplyAll(pending[m:run], old, oldOK)
		m = run
		if ok && inRange(key) {
			if !fn(key, val) {
				return false
			}
		}
	}
	return true
}
