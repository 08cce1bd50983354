// Package cobtree implements a dynamic cache-oblivious B-tree: a
// packed-memory array (PMA) of sorted key-value cells indexed by a complete
// binary search tree stored in van Emde Boas order — the design the paper's
// §8 points to ("most cache-oblivious dictionaries are based on the van
// Emde Boas layout", citing Bender–Demaine–Farach-Colton).
//
// The structure is oblivious to the block size B and memory size M: without
// re-tuning, searches touch O(log_B N) blocks and inserts amortize
// O(1 + (log² N)/B) block writes for *every* B simultaneously — the dynamic
// counterpart of the §8 static tree, and a natural answer to the paper's
// "node sizes cannot adapt" dilemma. A test demonstrates the obliviousness
// by metering the same tree at different block sizes.
//
// Updates keep cells within per-window density bounds: an insert that
// overfills its segment redistributes the smallest enclosing
// power-of-two-aligned window that stays within its threshold, doubling
// the array when the root window is full (Bender, Demaine, Farach-Colton;
// Itai, Konheim, Rodeh).
package cobtree

import (
	"fmt"
	"math/bits"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/storage"
	"iomodels/internal/veb"
)

// Config shapes a tree.
type Config struct {
	MaxKeyBytes   int
	MaxValueBytes int
	// BlockBytes is the metering granularity (the cache line B the
	// structure itself never consults for layout decisions). The cache
	// budget M is the engine's CacheBytes.
	BlockBytes int
}

func (c Config) validate() error {
	if c.MaxKeyBytes <= 0 || c.MaxValueBytes < 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cobtree: invalid config")
	}
	return nil
}

// Density thresholds (leaf→root), classic PMA values.
const (
	tauLeaf = 0.92
	tauRoot = 0.70
	rhoLeaf = 0.08
	rhoRoot = 0.30
)

// Tree is a cache-oblivious B-tree on a shared storage engine. Mutations
// run on the engine's owner client (single writer); concurrent reads go
// through per-client Sessions.
type Tree struct {
	cfg       Config
	eng       *engine.Engine
	owner     *engine.Client
	slotBytes int64

	cells    []kv.Entry // len = capacity; empty cell has nil Key
	live     int
	segSlots int // power of two
	numSegs  int // power of two

	mins    [][]byte // heap-indexed subtree minima; index 1..2*numSegs-1
	vebPos  []int32  // vEB array position of each heap index
	idxSlot int64
	idxBase int64

	// LogicalBytesInserted accumulates Put payload bytes.
	LogicalBytesInserted int64
	// Rebalances counts window redistributions (grows/shrinks included).
	Rebalances int64
}

// New creates an empty tree metered against the engine's device.
func New(cfg Config, eng *engine.Engine) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:       cfg,
		eng:       eng,
		owner:     eng.Owner(),
		slotBytes: int64(9 + cfg.MaxKeyBytes + cfg.MaxValueBytes),
		idxSlot:   int64(8 + cfg.MaxKeyBytes),
	}
	t.segSlots = 4
	for int64(t.segSlots)*t.slotBytes < int64(cfg.BlockBytes) {
		t.segSlots *= 2
	}
	t.rebuild(nil, 2*t.segSlots)
	return t, nil
}

// Items returns the number of live keys.
func (t *Tree) Items() int { return t.live }

// Capacity returns the PMA's slot capacity.
func (t *Tree) Capacity() int { return len(t.cells) }

// Counters returns the metered IO statistics.
func (t *Tree) Counters() storage.Counters { return t.eng.Counters() }

// Engine returns the storage engine backing the tree.
func (t *Tree) Engine() *engine.Engine { return t.eng }

// Flush writes back dirty metered blocks.
func (t *Tree) Flush() { t.eng.Pager().Flush(t.owner) }

// height returns the number of window levels above a segment.
func (t *Tree) height() int { return bits.Len(uint(t.numSegs)) - 1 }

// tau returns the max density for a window at level l (0 = one segment).
func (t *Tree) tau(l int) float64 {
	h := t.height()
	if h == 0 {
		return tauRoot
	}
	return tauLeaf - (tauLeaf-tauRoot)*float64(l)/float64(h)
}

// rho returns the min density for a window at level l.
func (t *Tree) rho(l int) float64 {
	h := t.height()
	if h == 0 {
		return rhoRoot
	}
	return rhoLeaf + (rhoRoot-rhoLeaf)*float64(l)/float64(h)
}

// rebuild lays out entries evenly into a PMA of the given capacity and
// rebuilds the index. Charged as a bulk write of both regions.
func (t *Tree) rebuild(entries []kv.Entry, capacity int) {
	if capacity < 2*t.segSlots {
		capacity = 2 * t.segSlots
	}
	oldExtent := int64(len(t.cells)) * t.slotBytes
	if len(t.mins) > 1 {
		oldExtent = t.idxBase + int64(len(t.mins)-1)*t.idxSlot
	}
	t.cells = make([]kv.Entry, capacity)
	t.numSegs = capacity / t.segSlots
	t.live = len(entries)
	nIndex := 2*t.numSegs - 1
	t.mins = make([][]byte, nIndex+1)
	t.vebPos = veb.Order(bits.Len(uint(t.numSegs)))
	t.idxBase = int64(capacity) * t.slotBytes

	// Spread entries evenly across segments.
	perSeg := len(entries) / t.numSegs
	extra := len(entries) % t.numSegs
	pos := 0
	for s := 0; s < t.numSegs; s++ {
		n := perSeg
		if s < extra {
			n++
		}
		for i := 0; i < n; i++ {
			t.cells[s*t.segSlots+i] = entries[pos]
			pos++
		}
	}
	// The old image is garbage; charge the new one as one bulk write.
	t.dropImage(oldExtent)
	t.touch(t.owner, 0, int64(capacity)*t.slotBytes+int64(nIndex)*t.idxSlot, true)
	for s := t.numSegs - 1; s >= 0; s-- {
		t.setSegMin(s, false)
	}
	t.Rebalances++
}

// segRange returns the cell index range of segment s.
func (t *Tree) segRange(s int) (int, int) { return s * t.segSlots, (s + 1) * t.segSlots }

// segMin returns the minimum key in segment s, or nil if empty.
func (t *Tree) segMin(s int) []byte {
	lo, hi := t.segRange(s)
	for i := lo; i < hi; i++ {
		if t.cells[i].Key != nil {
			return t.cells[i].Key
		}
	}
	return nil
}

// touchIndex charges client c for one index-node access.
func (t *Tree) touchIndex(c *engine.Client, heap int, write bool) {
	t.touch(c, t.idxBase+int64(t.vebPos[heap-1])*t.idxSlot, t.idxSlot, write)
}

// setSegMin refreshes the leaf min for segment s and its ancestors,
// charging index writes when charge is set.
func (t *Tree) setSegMin(s int, charge bool) {
	i := t.numSegs + s
	t.mins[i] = t.segMin(s)
	if charge {
		t.touchIndex(t.owner, i, true)
	}
	for i > 1 {
		i /= 2
		l, r := t.mins[2*i], t.mins[2*i+1]
		switch {
		case l == nil:
			t.mins[i] = r
		case r == nil || kv.Compare(l, r) <= 0:
			t.mins[i] = l
		default:
			t.mins[i] = r
		}
		if charge {
			t.touchIndex(t.owner, i, true)
		}
	}
}

// findSeg descends the vEB index to the segment that should hold key,
// charging index reads to client c.
func (t *Tree) findSeg(c *engine.Client, key []byte) int {
	i := 1
	t.touchIndex(c, i, false)
	for i < t.numSegs {
		r := t.mins[2*i+1]
		if r != nil && kv.Compare(key, r) >= 0 {
			i = 2*i + 1
		} else {
			i = 2 * i
		}
		t.touchIndex(c, i, false)
	}
	return i - t.numSegs
}

// touchSeg charges client c a read (or write) of segment s's cell range.
func (t *Tree) touchSeg(c *engine.Client, s int, write bool) {
	lo, _ := t.segRange(s)
	t.touch(c, int64(lo)*t.slotBytes, int64(t.segSlots)*t.slotBytes, write)
}

// findInSeg returns the in-segment position of key and whether it is
// present; when absent, the position is where it should be inserted among
// the live prefix... cells within a segment are kept left-packed and
// sorted.
func (t *Tree) findInSeg(s int, key []byte) (int, int, bool) {
	lo, hi := t.segRange(s)
	n := lo
	for n < hi && t.cells[n].Key != nil {
		n++
	}
	// Binary search over [lo, n).
	a, b := lo, n
	for a < b {
		m := (a + b) / 2
		if kv.Compare(t.cells[m].Key, key) < 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	found := a < n && kv.Compare(t.cells[a].Key, key) == 0
	return a, n - lo, found
}

// Get returns the value stored at key.
func (t *Tree) Get(key []byte) ([]byte, bool) { return t.GetAs(t.owner, key) }

// GetAs is Get charged to c.
func (t *Tree) GetAs(c *engine.Client, key []byte) ([]byte, bool) {
	t.checkKey(key, nil)
	s := t.findSeg(c, key)
	t.touchSeg(c, s, false)
	pos, _, found := t.findInSeg(s, key)
	if !found {
		return nil, false
	}
	return t.cells[pos].Value, true
}

func (t *Tree) checkKey(key, value []byte) {
	if len(key) == 0 || len(key) > t.cfg.MaxKeyBytes {
		panic(fmt.Sprintf("cobtree: key length %d outside (0,%d]", len(key), t.cfg.MaxKeyBytes))
	}
	if len(value) > t.cfg.MaxValueBytes {
		panic(fmt.Sprintf("cobtree: value length %d exceeds %d", len(value), t.cfg.MaxValueBytes))
	}
}

// Put inserts or replaces key.
func (t *Tree) Put(key, value []byte) {
	t.checkKey(key, value)
	t.LogicalBytesInserted += int64(len(key) + len(value))
	key = append([]byte(nil), key...)
	value = append([]byte(nil), value...)

	s := t.findSeg(t.owner, key)
	t.touchSeg(t.owner, s, false)
	pos, occ, found := t.findInSeg(s, key)
	if found {
		t.cells[pos].Value = value
		t.touchSeg(t.owner, s, true)
		return
	}
	if float64(occ+1) <= tauLeaf*float64(t.segSlots) {
		// Room in the segment: shift the tail right by one.
		lo := s * t.segSlots
		copy(t.cells[pos+1:lo+occ+1], t.cells[pos:lo+occ])
		t.cells[pos] = kv.Entry{Key: key, Value: value}
		t.live++
		t.touchSeg(t.owner, s, true)
		t.setSegMin(s, true)
		return
	}
	t.insertByRebalance(s, kv.Entry{Key: key, Value: value})
}

// insertByRebalance finds the smallest enclosing window that can absorb one
// more entry within its density threshold, redistributes it with the new
// entry included, or grows the array.
func (t *Tree) insertByRebalance(s int, e kv.Entry) {
	h := t.height()
	for l := 1; l <= h; l++ {
		w := 1 << l
		s0 := s &^ (w - 1)
		liveIn := t.windowLive(s0, w)
		if float64(liveIn+1) <= t.tau(l)*float64(w*t.segSlots) {
			t.redistribute(s0, w, &e)
			t.live++
			return
		}
	}
	// Root window full: grow. Charge the full read of the old image.
	t.touch(t.owner, 0, int64(len(t.cells))*t.slotBytes, false)
	entries := t.collect(0, t.numSegs)
	entries = insertSorted(entries, e)
	t.rebuild(entries, 2*len(t.cells))
}

// windowLive counts live cells in w segments starting at s0 (charging the
// reads — a rebalance inspects its window).
func (t *Tree) windowLive(s0, w int) int {
	n := 0
	for s := s0; s < s0+w; s++ {
		t.touchSeg(t.owner, s, false)
		lo, hi := t.segRange(s)
		for i := lo; i < hi && t.cells[i].Key != nil; i++ {
			n++
		}
	}
	return n
}

// collect gathers the live entries of w segments starting at s0, in order.
func (t *Tree) collect(s0, w int) []kv.Entry {
	out := make([]kv.Entry, 0, w*t.segSlots)
	for s := s0; s < s0+w; s++ {
		lo, hi := t.segRange(s)
		for i := lo; i < hi && t.cells[i].Key != nil; i++ {
			out = append(out, t.cells[i])
		}
	}
	return out
}

func insertSorted(entries []kv.Entry, e kv.Entry) []kv.Entry {
	a, b := 0, len(entries)
	for a < b {
		m := (a + b) / 2
		if kv.Compare(entries[m].Key, e.Key) < 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	entries = append(entries, kv.Entry{})
	copy(entries[a+1:], entries[a:])
	entries[a] = e
	return entries
}

// redistribute spreads the window's entries (plus optionally one new entry)
// evenly over its segments, charging the window write and index updates.
func (t *Tree) redistribute(s0, w int, extra *kv.Entry) {
	t.Rebalances++
	entries := t.collect(s0, w)
	if extra != nil {
		entries = insertSorted(entries, *extra)
	}
	lo := s0 * t.segSlots
	hi := (s0 + w) * t.segSlots
	for i := lo; i < hi; i++ {
		t.cells[i] = kv.Entry{}
	}
	perSeg := len(entries) / w
	ext := len(entries) % w
	pos := 0
	for s := 0; s < w; s++ {
		n := perSeg
		if s < ext {
			n++
		}
		base := (s0 + s) * t.segSlots
		for i := 0; i < n; i++ {
			t.cells[base+i] = entries[pos]
			pos++
		}
	}
	t.touch(t.owner, int64(lo)*t.slotBytes, int64(hi-lo)*t.slotBytes, true)
	for s := s0; s < s0+w; s++ {
		t.setSegMin(s, true)
	}
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) bool {
	t.checkKey(key, nil)
	s := t.findSeg(t.owner, key)
	t.touchSeg(t.owner, s, false)
	pos, occ, found := t.findInSeg(s, key)
	if !found {
		return false
	}
	lo := s * t.segSlots
	copy(t.cells[pos:], t.cells[pos+1:lo+occ])
	t.cells[lo+occ-1] = kv.Entry{}
	t.live--
	t.touchSeg(t.owner, s, true)
	t.setSegMin(s, true)

	// Climb windows that fell below their minimum density.
	h := t.height()
	occNow := occ - 1
	if float64(occNow) >= t.rho(0)*float64(t.segSlots) {
		return true
	}
	for l := 1; l <= h; l++ {
		w := 1 << l
		s0 := s &^ (w - 1)
		liveIn := t.windowLive(s0, w)
		if float64(liveIn) >= t.rho(l)*float64(w*t.segSlots) {
			t.redistribute(s0, w, nil)
			return true
		}
	}
	// Root under-full: shrink (never below the minimum capacity). Charge
	// the full read of the old image.
	t.touch(t.owner, 0, int64(len(t.cells))*t.slotBytes, false)
	if len(t.cells) > 2*t.segSlots {
		t.rebuild(t.collect(0, t.numSegs), len(t.cells)/2)
	} else {
		t.redistribute(0, t.numSegs, nil)
	}
	return true
}

// Scan calls fn for each entry with lo <= key < hi in key order (hi nil =
// unbounded), charging sequential cell reads.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	t.ScanAs(t.owner, lo, hi, fn)
}

// ScanAs is Scan charged to c.
func (t *Tree) ScanAs(c *engine.Client, lo, hi []byte, fn func(key, value []byte) bool) {
	start := 0
	if lo != nil {
		s := t.findSeg(c, lo)
		pos, _, _ := t.findInSeg(s, lo)
		start = pos
		// The key could also be in a later segment if this one is empty
		// past pos; the walk below handles that naturally.
	}
	for i := start; i < len(t.cells); i++ {
		e := t.cells[i]
		if e.Key == nil {
			continue
		}
		t.touch(c, int64(i)*t.slotBytes, t.slotBytes, false)
		if lo != nil && kv.Compare(e.Key, lo) < 0 {
			continue
		}
		if hi != nil && kv.Compare(e.Key, hi) >= 0 {
			return
		}
		if !fn(e.Key, e.Value) {
			return
		}
	}
}

// Check verifies the PMA and index invariants (tests).
func (t *Tree) Check() error {
	var prev []byte
	count := 0
	for s := 0; s < t.numSegs; s++ {
		lo, hi := t.segRange(s)
		inGap := false
		for i := lo; i < hi; i++ {
			e := t.cells[i]
			if e.Key == nil {
				inGap = true
				continue
			}
			if inGap {
				return fmt.Errorf("segment %d: live cell after gap at %d", s, i)
			}
			if prev != nil && kv.Compare(prev, e.Key) >= 0 {
				return fmt.Errorf("cells out of order at %d", i)
			}
			prev = e.Key
			count++
		}
		want := t.segMin(s)
		got := t.mins[t.numSegs+s]
		if (want == nil) != (got == nil) || (want != nil && kv.Compare(want, got) != 0) {
			return fmt.Errorf("segment %d: stale index min", s)
		}
	}
	if count != t.live {
		return fmt.Errorf("live count %d, actual %d", t.live, count)
	}
	for i := t.numSegs - 1; i >= 1; i-- {
		l, r := t.mins[2*i], t.mins[2*i+1]
		want := l
		if l == nil || (r != nil && kv.Compare(r, l) < 0) {
			want = r
		}
		if (want == nil) != (t.mins[i] == nil) || (want != nil && kv.Compare(want, t.mins[i]) != 0) {
			return fmt.Errorf("index node %d stale", i)
		}
	}
	return nil
}
