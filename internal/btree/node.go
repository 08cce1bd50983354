// Node representation and on-disk serialization for the B-tree.
//
// Nodes live in fixed-size extents of Config.NodeBytes — the paper's tunable
// B. Every load reads the whole extent and every store writes the whole
// extent, so the tree's IO sizes are exactly its node size, as in the
// classic B-tree analyses of §5.
//
// A leaf is its extent (DESIGN.md §5): a slotted page that a load validates
// and keeps, a Get searches in place, and a write-back seals and hands over.
// A Get or a Scan loads the extent the store lends; the writer's mutation
// path loads a private copy into a page from its free list, and when the
// writer evicts such a leaf that no reader viewed, it writes the page back
// by copy and recycles it.
//
//	[0]          magic 0xB3
//	[1:5]        count u32
//	[5:5+4c]     slot directory: u32 offset of entry i, in key order
//	  …          free space
//	heap         entries [klen u16][vlen u16][key][value], growing down from NB-4
//	[NB-4:NB]    crc32 of [0, NB-4)
//
// A slot and an entry head cost kv.EncodedEntrySize's 8 bytes per entry, and
// header plus footer baseNodeBytes, so size — what split, merge, borrow and
// the pager charge read — is the byte count of the live page. Three rules
// keep the views a Get returns valid: a page a read lent or the store was
// handed is never written (the first mutation copies it); entry bytes a
// reader has viewed are never overwritten (a write appends, a delete edits
// the directory, and a repack — a compaction, a split, a merge, a borrow —
// moves entries in place only on a private page no reader has viewed, else
// onto a fresh one), and a page a reader viewed is never recycled; and a
// load validates every slot before anything reads the page in place.
//
// An internal node is decoded into pivots and children and encoded afresh
// on write-back, its crc directly after its payload.
//
// Every resident node also carries a column of its keys' heads (kv.Head, the
// first 8 bytes as a big-endian word): a leaf's in directory order (heads),
// an internal node's beside its pivots (pivotHeads). kv.Search probes the
// column and loads a key only where heads tie, one load per probe instead of
// a slot and then a key elsewhere in the page. Columns are uncharged decoded
// state: the page, size and the pager charge do not count them. A load
// builds a leaf's column as validate reads every key; the writer edits it
// beside the directory, and pivots, pivotHeads and size together only
// through newInternal, insertPivot and removePivot.

package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"

	"iomodels/internal/kv"
)

const (
	magicInternal = 0xB2
	// magicLeaf marks a slotted leaf page. 0xB1 was the entry-list leaf
	// encoding, which no longer loads.
	magicLeaf = 0xB3

	// headerBytes is magic(1) + count(4); footerBytes is the crc32.
	headerBytes = 5
	footerBytes = 4
	// baseNodeBytes is the serialized size of an empty node.
	baseNodeBytes = headerBytes + footerBytes
	// childRefBytes is the serialized size of one child pointer.
	childRefBytes = 8
	// slotBytes is a leaf directory slot; entryHeadBytes an entry's klen and
	// vlen. Together they are kv.EncodedEntrySize's overhead.
	slotBytes      = 4
	entryHeadBytes = 4
	// maxLenField bounds a key or value length: a u16.
	maxLenField = 1<<16 - 1
)

// node is a B-tree node: a leaf page (page, count, low, shared) or a decoded
// internal node (pivots, children), according to leaf.
type node struct {
	leaf bool
	// page is a leaf's NodeBytes slotted page; entries occupy [low, NB-4).
	// shared marks a page a read lent or a write-back handed to the store:
	// it is never written again, and the next mutation copies it. viewed
	// marks a page whose entries a reader took views of (GetAs, Scan): its
	// entry bytes are never overwritten. A fresh or copied page has neither.
	page   []byte
	count  int
	low    int
	shared bool
	viewed atomic.Bool
	heads  []uint64 // leaf: head column of the directory's keys

	pivots     [][]byte // internal: len(children)-1 separators
	pivotHeads []uint64 // internal: head column of pivots
	children   []int64  // internal: child extent offsets
	size       int      // current serialized size in bytes
}

// newLeaf returns an empty leaf on a fresh private page.
func newLeaf(nodeBytes int) *node { return leafOn(make([]byte, nodeBytes)) }

// leafOn returns an empty leaf on page, which is private and zero.
func leafOn(page []byte) *node {
	return &node{leaf: true, page: page, low: len(page) - footerBytes, size: baseNodeBytes}
}

// newInternal returns an internal node over children, separated by pivots,
// with their head column and size.
func newInternal(pivots [][]byte, children []int64) *node {
	n := &node{pivots: pivots, children: children, pivotHeads: make([]uint64, len(pivots))}
	for i, p := range pivots {
		n.pivotHeads[i] = kv.Head(p)
	}
	n.size = n.computeSize()
	return n
}

// set makes n the node m, which no reader has viewed: nodes are replaced
// through set, not copied, because viewed is atomic.
func (n *node) set(m *node) {
	n.leaf, n.page, n.count, n.low, n.shared, n.heads = m.leaf, m.page, m.count, m.low, m.shared, m.heads
	n.pivots, n.pivotHeads, n.children, n.size = m.pivots, m.pivotHeads, m.children, m.size
	n.viewed.Store(false)
}

// view records that a reader is about to take views of n's entries.
func (n *node) view() {
	if !n.viewed.Load() {
		n.viewed.Store(true)
	}
}

// insertPivot inserts pivot p at i and child c at j.
func (n *node) insertPivot(i int, p []byte, j int, c int64) {
	n.pivots = slices.Insert(n.pivots, i, p)
	n.pivotHeads = slices.Insert(n.pivotHeads, i, kv.Head(p))
	n.children = slices.Insert(n.children, j, c)
	n.size += childRefBytes + 4 + len(p)
}

// removePivot removes and returns pivot i and child j.
func (n *node) removePivot(i, j int) ([]byte, int64) {
	p, c := n.pivots[i], n.children[j]
	n.pivots = slices.Delete(n.pivots, i, i+1)
	n.pivotHeads = slices.Delete(n.pivotHeads, i, i+1)
	n.children = slices.Delete(n.children, j, j+1)
	n.size -= childRefBytes + 4 + len(p)
	return p, c
}

func (n *node) pivot(i int) []byte { return n.pivots[i] }

// slot returns the page offset of leaf entry i.
func (n *node) slot(i int) int {
	return int(binary.BigEndian.Uint32(n.page[headerBytes+slotBytes*i:]))
}

func (n *node) setSlot(i, off int) {
	binary.BigEndian.PutUint32(n.page[headerBytes+slotBytes*i:], uint32(off))
}

// entryAt returns the key and value of the entry at off as capacity-capped
// views of p: appending to one copies.
func entryAt(p []byte, off int) (key, value []byte) {
	k := int(binary.BigEndian.Uint16(p[off:]))
	v := int(binary.BigEndian.Uint16(p[off+2:]))
	a := off + entryHeadBytes
	return p[a : a+k : a+k], p[a+k : a+k+v : a+k+v]
}

// entry returns leaf entry i as views of the page.
func (n *node) entry(i int) (key, value []byte) { return entryAt(n.page, n.slot(i)) }

func (n *node) key(i int) []byte {
	k, _ := n.entry(i)
	return k
}

// entrySize is the bytes leaf entry i adds to size: its slot and its entry.
func (n *node) entrySize(i int) int {
	k, v := n.entry(i)
	return kv.EncodedEntrySize(k, v)
}

// computeSize recomputes the serialized size from scratch (used by
// consistency checks; mutations maintain size incrementally).
func (n *node) computeSize() int {
	s := baseNodeBytes
	if n.leaf {
		for i := 0; i < n.count; i++ {
			s += n.entrySize(i)
		}
		return s
	}
	s += len(n.children) * childRefBytes
	for _, p := range n.pivots {
		s += 4 + len(p)
	}
	return s
}

// findChild returns the index of the child covering key: pivots[i] separates
// children[i] (keys < pivots[i]) from children[i+1] (keys >= pivots[i]).
func (n *node) findChild(key []byte) int {
	i, _ := kv.Search(len(n.pivots), n.pivotHeads, key, true, n.pivot)
	return i
}

// findEntry binary-searches a leaf's head column and slot directory for key
// and returns its position and whether it is present.
func (n *node) findEntry(key []byte) (int, bool) {
	return kv.Search(n.count, n.heads, key, false, n.key)
}

// own makes a leaf's page private before a write: a lent or handed page is
// copied, never written.
func (n *node) own() {
	if n.shared {
		n.page, n.shared = bytes.Clone(n.page), false
		n.viewed.Store(false)
	}
}

// free is the gap between a leaf's slot directory and its heap.
func (n *node) free() int { return n.low - headerBytes - slotBytes*n.count }

// push appends an entry to the heap, its offset to the end of the directory
// of a private page and its key's head h to the column; the caller keeps the
// directory in key order.
func (n *node) push(entry []byte, h uint64) {
	if len(entry)+slotBytes > n.free() {
		panic(fmt.Sprintf("btree: leaf overflows its page: %d+%d > %d free", len(entry), slotBytes, n.free()))
	}
	n.low -= len(entry)
	copy(n.page[n.low:], entry)
	n.setSlot(n.count, n.low)
	n.heads = append(n.heads, h)
	n.count++
	n.size += slotBytes + len(entry)
}

// fill pushes entries [i, j) of the leaf src onto n's page and returns n.
func (n *node) fill(src *node, i, j int) *node {
	n.heads = slices.Grow(n.heads, j-i)
	for ; i < j; i++ {
		off := src.slot(i)
		k, v := entryAt(src.page, off)
		n.push(src.page[off:off+entryHeadBytes+len(k)+len(v)], src.heads[i])
	}
	return n
}

// repack keeps leaf entries [i, j) and lays them out exactly as
// newLeaf(nb).fill(n, i, j) would, and returns n. A private page no reader
// has viewed is repacked in place: its entries go through scratch, the
// writer's own page of the same size, in directory order, and the gap is
// zeroed. Any other page is replaced by a fresh one.
func (n *node) repack(i, j int, scratch []byte) *node {
	if n.shared || n.viewed.Load() {
		n.set(newLeaf(len(n.page)).fill(n, i, j))
		return n
	}
	end := len(n.page) - footerBytes
	low, size := end, baseNodeBytes
	for s := i; s < j; s++ {
		off := n.slot(s)
		k, v := entryAt(n.page, off)
		e := entryHeadBytes + len(k) + len(v)
		low -= e
		copy(scratch[low:], n.page[off:off+e])
		n.setSlot(s-i, low) // slot s-i <= s: already read
		size += slotBytes + e
	}
	copy(n.page[low:end], scratch[low:end])
	clear(n.page[:headerBytes])
	clear(n.page[headerBytes+slotBytes*(j-i) : low])
	clear(n.page[end:])
	n.heads = append(n.heads[:0], n.heads[i:j]...)
	n.count, n.low, n.size = j-i, low, size
	return n
}

// insertEntry inserts or replaces (key, value) in a leaf, reporting whether
// the key is new. The entry is appended to free space, a replaced one left
// where it is; a page short of free space is repacked first, through
// scratch.
func (n *node) insertEntry(key, value, scratch []byte) bool {
	i, found := n.findEntry(key)
	need, grow := entryHeadBytes+len(key)+len(value), slotBytes
	if found {
		grow = 0
	}
	if need+grow > n.free() {
		n.repack(0, n.count, scratch)
		if need+grow > n.free() {
			panic(fmt.Sprintf("btree: leaf overflows its page: %d+%d > %d free", need, grow, n.free()))
		}
	}
	n.own()
	n.low -= need
	binary.BigEndian.PutUint16(n.page[n.low:], uint16(len(key)))
	binary.BigEndian.PutUint16(n.page[n.low+2:], uint16(len(value)))
	copy(n.page[n.low+entryHeadBytes:], key)
	copy(n.page[n.low+entryHeadBytes+len(key):], value)
	if found {
		_, old := n.entry(i)
		n.size += len(value) - len(old)
		n.setSlot(i, n.low)
		return false
	}
	dir := n.page[headerBytes:]
	copy(dir[slotBytes*(i+1):slotBytes*(n.count+1)], dir[slotBytes*i:slotBytes*n.count])
	n.setSlot(i, n.low)
	n.heads = slices.Insert(n.heads, i, kv.Head(key))
	n.count++
	n.size += slotBytes + need
	return true
}

// removeEntry deletes key from a leaf if present, reporting whether it was.
// Only the directory changes; the entry's bytes stay until a compaction.
func (n *node) removeEntry(key []byte) bool {
	i, found := n.findEntry(key)
	if !found {
		return false
	}
	n.own()
	n.size -= n.entrySize(i)
	dir := n.page[headerBytes:]
	copy(dir[slotBytes*i:], dir[slotBytes*(i+1):slotBytes*n.count])
	n.heads = slices.Delete(n.heads, i, i+1)
	n.count--
	return true
}

// encode returns the extent a write-back hands over. A leaf's is its own
// page: encode writes its count and crc in place, once, and marks it shared,
// allocating nothing. An internal node is serialized into a fresh buffer of
// exactly nodeBytes (zero padded), with a crc32 of the payload after it.
func (n *node) encode(nodeBytes int) []byte {
	if n.leaf {
		// A shared page is unchanged since it was loaded or last sealed.
		if !n.shared {
			n.seal()
			n.shared = true
		}
		return n.page
	}
	var e kv.Enc
	e.Buf = make([]byte, 0, nodeBytes)
	e.U8(magicInternal)
	e.U32(uint32(len(n.children)))
	for _, c := range n.children {
		e.U64(uint64(c))
	}
	for _, p := range n.pivots {
		e.Bytes(p)
	}
	if len(e.Buf)+footerBytes > nodeBytes {
		panic(fmt.Sprintf("btree: node overflows extent: %d+%d > %d", len(e.Buf), footerBytes, nodeBytes))
	}
	// The crc goes directly after the payload; the decoder re-derives the
	// payload length from the structure. The node fit, so e.Buf still has
	// the capacity it was made with and is zero beyond its length: the
	// extent is that buffer at full length.
	e.U32(crc32.ChecksumIEEE(e.Buf))
	return e.Buf[:nodeBytes]
}

// seal writes a leaf's magic, count and crc into its page in place.
func (n *node) seal() {
	p := n.page
	p[0] = magicLeaf
	binary.BigEndian.PutUint32(p[1:], uint32(n.count))
	binary.BigEndian.PutUint32(p[len(p)-footerBytes:], crc32.ChecksumIEEE(p[:len(p)-footerBytes]))
}

// decodeNode loads an extent produced by encode, verifying its checksum. A
// leaf keeps buf as its page, shared: buf is what a read lent.
func decodeNode(buf []byte) (*node, error) {
	if len(buf) < baseNodeBytes {
		return nil, fmt.Errorf("btree: extent of %d bytes is shorter than a node", len(buf))
	}
	switch buf[0] {
	case magicLeaf:
		return loadLeaf(buf)
	case magicInternal:
	default:
		return nil, fmt.Errorf("btree: bad node magic 0x%02x", buf[0])
	}
	d := kv.Dec{Buf: buf, Off: 1}
	count := int(d.U32())
	if count < 1 || count > len(buf)/childRefBytes {
		return nil, fmt.Errorf("btree: implausible child count %d", count)
	}
	children := make([]int64, 0, count)
	for i := 0; i < count && d.Err == nil; i++ {
		children = append(children, int64(d.U64()))
	}
	pivots := make([][]byte, 0, count-1)
	for i := 0; i < count-1 && d.Err == nil; i++ {
		pivots = append(pivots, d.Bytes())
	}
	if d.Err != nil {
		return nil, d.Err
	}
	payload := d.Off
	if payload+footerBytes > len(buf) {
		return nil, fmt.Errorf("btree: truncated node footer")
	}
	if got := crc32.ChecksumIEEE(buf[:payload]); got != binary.BigEndian.Uint32(buf[payload:]) {
		return nil, errTorn
	}
	return newInternal(pivots, children), nil
}

var errTorn = fmt.Errorf("btree: checksum mismatch: extent torn or corrupt")

// loadLeaf validates a leaf page — its crc, its count against the page, and
// every slot — and returns it as a leaf, shared, with its head column. The
// column has room for a quarter more entries, so the first inserts after a
// load do not reallocate it.
func loadLeaf(page []byte) (*node, error) {
	nb := len(page)
	if crc32.ChecksumIEEE(page[:nb-footerBytes]) != binary.BigEndian.Uint32(page[nb-footerBytes:]) {
		return nil, errTorn
	}
	count := binary.BigEndian.Uint32(page[1:])
	if int64(count) > int64(nb-baseNodeBytes)/(slotBytes+entryHeadBytes) {
		return nil, fmt.Errorf("btree: implausible entry count %d", count)
	}
	n := &node{leaf: true, page: page, count: int(count), shared: true}
	var err error
	n.size, n.low, n.heads, err = n.validate(make([]uint64, 0, n.count+n.count/4+4))
	if err != nil {
		return nil, err
	}
	return n, nil
}

// validate walks a leaf's directory checking that every entry lies inside the
// heap, between the directory and the footer, and that keys ascend. It
// returns the page's size, the lowest entry offset and heads with the
// keys' heads appended.
func (n *node) validate(heads []uint64) (size, low int, _ []uint64, err error) {
	end := len(n.page) - footerBytes
	dir := headerBytes + slotBytes*n.count
	size, low = baseNodeBytes, end
	var prev []byte
	for i := 0; i < n.count; i++ {
		off := n.slot(i)
		if off < dir || off > end-entryHeadBytes {
			return 0, 0, nil, fmt.Errorf("btree: leaf slot %d: offset %d outside the heap [%d, %d)", i, off, dir, end)
		}
		k := int(binary.BigEndian.Uint16(n.page[off:]))
		v := int(binary.BigEndian.Uint16(n.page[off+2:]))
		if off+entryHeadBytes+k+v > end {
			return 0, 0, nil, fmt.Errorf("btree: leaf slot %d: entry of %d+%d bytes at %d runs past the heap", i, k, v, off)
		}
		key, _ := entryAt(n.page, off)
		if i > 0 && kv.Compare(prev, key) >= 0 {
			return 0, 0, nil, fmt.Errorf("btree: leaf entries out of order at %d", i)
		}
		prev, size, low = key, size+slotBytes+entryHeadBytes+k+v, min(low, off)
		heads = append(heads, kv.Head(key))
	}
	if size > len(n.page) {
		return 0, 0, nil, fmt.Errorf("btree: leaf entries of %d bytes overlap in a %d-byte page", size, len(n.page))
	}
	return size, low, heads, nil
}
