// Structural invariant checking for the Bε-tree, used by tests and the
// property-based suites. Check walks the whole tree (loading every node
// fully) and verifies the invariants the analyses rely on.

package betree

import (
	"fmt"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// Check verifies tree-wide invariants and returns the first violation:
//
//   - pivots and entries are strictly sorted and within their key ranges;
//   - buffered messages sit in the buffer of the child that covers them,
//     in (key, seq) order and coalesced (buffer.check);
//   - per-slot capacities hold (Slotted) or node capacity holds (Packed);
//   - parents' route copies match each child's own routing info (Slotted);
//   - every head column holds its keys' heads: each node's pivots', each
//     buffer's and route's, and each slot or basement a query decoded into
//     a resident node (a basement only scans have read has none yet);
//   - all leaves are at height 0 and node heights decrease by one per level;
//   - fanout never exceeds MaxFanout between operations;
//   - byte accounting (leafBytes, buffer bytes) matches content.
func (t *Tree) Check() error {
	n := t.rootN
	return t.checkNode(t.root, n, nil, nil, n.height)
}

func (t *Tree) checkNode(off int64, n *node, lo, hi []byte, height int) error {
	if n == nil {
		var pin *engine.Pin
		n, pin = t.ensureFull(off)
		defer t.unpin(pin)
	}
	if !n.full {
		return fmt.Errorf("node %d: not full after ensureFull", off)
	}
	if n.height != height {
		return fmt.Errorf("node %d: height %d, expected %d", off, n.height, height)
	}
	if n.leaf != (height == 0) {
		return fmt.Errorf("node %d: leaf flag %v at height %d", off, n.leaf, height)
	}
	inRange := func(k []byte) bool {
		return (lo == nil || kv.Compare(k, lo) >= 0) && (hi == nil || kv.Compare(k, hi) < 0)
	}
	if n.leaf {
		bytes := 0
		for i, e := range n.entries {
			if i > 0 && kv.Compare(n.entries[i-1].Key, e.Key) >= 0 {
				return fmt.Errorf("leaf %d: entries out of order at %d", off, i)
			}
			if !inRange(e.Key) {
				return fmt.Errorf("leaf %d: key out of range", off)
			}
			bytes += e.Size()
		}
		if bytes != n.leafBytes {
			return fmt.Errorf("leaf %d: leafBytes %d, actual %d", off, n.leafBytes, bytes)
		}
		if n.leafBytes > t.cfg.leafCapBytes() {
			return fmt.Errorf("leaf %d: over capacity: %d > %d", off, n.leafBytes, t.cfg.leafCapBytes())
		}
		if len(n.cuts) < 2 || n.cuts[0] != 0 || n.cuts[len(n.cuts)-1] != len(n.entries) {
			return fmt.Errorf("leaf %d: malformed cuts %v", off, n.cuts)
		}
		for i := 1; i < len(n.cuts); i++ {
			if n.cuts[i] < n.cuts[i-1] {
				return fmt.Errorf("leaf %d: decreasing cuts %v", off, n.cuts)
			}
		}
		return nil
	}

	if len(n.children) < 1 || len(n.children) != len(n.pivots)+1 || len(n.children) != len(n.bufs) {
		return fmt.Errorf("node %d: inconsistent children/pivots/bufs: %d/%d/%d",
			off, len(n.children), len(n.pivots), len(n.bufs))
	}
	if len(n.children) > t.cfg.MaxFanout {
		return fmt.Errorf("node %d: fanout %d exceeds %d", off, len(n.children), t.cfg.MaxFanout)
	}
	if t.cfg.Layout == Slotted && len(n.routes) != len(n.children) {
		return fmt.Errorf("node %d: %d routes for %d children", off, len(n.routes), len(n.children))
	}
	for i, p := range n.pivots {
		if i > 0 && kv.Compare(n.pivots[i-1], p) >= 0 {
			return fmt.Errorf("node %d: pivots out of order at %d", off, i)
		}
		if !inRange(p) {
			return fmt.Errorf("node %d: pivot out of range", off)
		}
	}
	if err := checkColumn(n.pivotHeads, len(n.pivots), n.pivot); err != nil {
		return fmt.Errorf("node %d pivots: %v", off, err)
	}
	if t.overfullNode(n) {
		return fmt.Errorf("node %d: overfull between operations", off)
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.pivots[i-1]
		}
		if i < len(n.pivots) {
			chi = n.pivots[i]
		}
		b := &n.bufs[i]
		if err := b.check(); err != nil {
			return fmt.Errorf("node %d buf %d: %v", off, i, err)
		}
		if k := len(b.msgs); k > 0 && (clo != nil && kv.Compare(b.msgs[0].Key, clo) < 0 || chi != nil && kv.Compare(b.msgs[k-1].Key, chi) >= 0) {
			return fmt.Errorf("node %d buf %d: message outside child range", off, i)
		}
		if err := t.checkResident(c); err != nil {
			return fmt.Errorf("node %d child %d: %v", off, i, err)
		}
		child, childPin := t.ensureFull(c)
		if t.cfg.Layout == Slotted {
			err := checkColumn(n.routes[i].heads, len(n.routes[i].keys), n.routes[i].key)
			if err == nil {
				err = routesEqual(n.routes[i], child.ownRoute())
			}
			if err != nil {
				t.unpin(childPin)
				return fmt.Errorf("node %d route %d: %v", off, i, err)
			}
		}
		err := t.checkNode(c, child, clo, chi, height-1)
		t.unpin(childPin)
		if err != nil {
			return err
		}
	}
	return nil
}

func routesEqual(a, b route) error {
	if len(a.keys) != len(b.keys) || len(a.ptrs) != len(b.ptrs) {
		return fmt.Errorf("shape %d/%d vs %d/%d", len(a.keys), len(a.ptrs), len(b.keys), len(b.ptrs))
	}
	for i := range a.keys {
		if kv.Compare(a.keys[i], b.keys[i]) != 0 {
			return fmt.Errorf("key %d differs", i)
		}
	}
	for i := range a.ptrs {
		if a.ptrs[i] != b.ptrs[i] {
			return fmt.Errorf("ptr %d differs", i)
		}
	}
	return nil
}

// checkResident checks the head columns of what queries decoded into the
// node at off, if it is resident: a partial node's slots or a lazy leaf's
// basements, which ensureFull replaces or materializes. A basement that only
// scans have read has no column yet.
func (t *Tree) checkResident(off int64) error {
	obj, pin := t.pager().TryPin(t.owner, engine.PageID(off))
	if pin == nil {
		return nil
	}
	defer t.unpin(pin)
	n := obj.(*node)
	for j := range n.slots {
		p := n.slots[j].Load()
		if p == nil || n.ext != nil && p.heads == nil {
			continue
		}
		for _, err := range []error{
			checkColumn(p.route.heads, len(p.route.keys), p.route.key),
			checkColumn(p.buf.heads, len(p.buf.msgs), p.buf.key),
			checkColumn(p.heads, len(p.entries), func(i int) []byte { return p.entries[i].Key }),
		} {
			if err != nil {
				return fmt.Errorf("resident slot %d: %v", j, err)
			}
		}
	}
	return nil
}

// checkColumn reports whether heads is the head column of key(0..n-1).
func checkColumn(heads []uint64, n int, key func(int) []byte) error {
	if len(heads) != n {
		return fmt.Errorf("%d heads for %d keys", len(heads), n)
	}
	for i, h := range heads {
		if want := kv.Head(key(i)); h != want {
			return fmt.Errorf("head %d is %#x, its key's is %#x", i, h, want)
		}
	}
	return nil
}

// check verifies b's own invariants: (key, seq) order, the coalescing rule
// (for one key, only the first message may be a Put or Tombstone), byte
// accounting and the head column.
func (b *buffer) check() error {
	bytes := 0
	for j, m := range b.msgs {
		if j > 0 {
			c := kv.Compare(b.msgs[j-1].Key, m.Key)
			if c > 0 || (c == 0 && b.msgs[j-1].Seq >= m.Seq) {
				return fmt.Errorf("messages out of (key,seq) order at %d", j)
			}
			if c == 0 && m.Kind != kv.Upsert {
				return fmt.Errorf("message %d supersedes an older one of its key", j)
			}
		}
		bytes += m.Size()
	}
	if bytes != b.bytes {
		return fmt.Errorf("bytes %d, actual %d", b.bytes, bytes)
	}
	return checkColumn(b.heads, len(b.msgs), b.key)
}
