// In-memory node representation and on-disk serialization for the Bε-tree.
//
// A node object may be Full (its whole extent paid for) or partial (only
// some slots resident). Queries in SlotOnly/MetaPlusSlot modes create
// partial nodes by reading single slots. A Full Slotted leaf read from its
// extent is lazy: it is charged as a whole, and each basement is decoded, and
// its crc checked, the first time a query uses it. All mutations (message
// inserts, flushes, splits, merges) operate on Full nodes with every entry
// decoded (materialize), so a dirty node is always Full and write-back always
// rewrites the whole extent, exactly as the paper's flush analysis assumes.
//
// Concurrent readers share resident nodes, and what they add to one is
// published race-free: a slot or basement is decoded aside and stored with
// one compare-and-swap of its atomic pointer (a reader that loses the race
// uses the winner's), and a partial node that a reader needs whole is decoded
// aside and swapped into the pager (engine.Pager.Swap). No reader writes a
// field of a node another reader can hold.

package betree

import (
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync/atomic"

	"iomodels/internal/kv"
)

const (
	magicLeaf     = 0xE1
	magicInternal = 0xE2
)

func logf(x float64) float64 { return math.Log(x) }

// column appends the heads of key(0..n-1) to *col and returns them, capped
// so that growing one column (buffer.merge) never writes the next.
func column(col *[]uint64, n int, key func(int) []byte) []uint64 {
	for i := range n {
		*col = append(*col, kv.Head(key(i)))
	}
	c := *col
	return c[len(c)-n : len(c) : len(c)]
}

// route is the routing information for one child, stored in the parent
// (Theorem 9's "pivots in the parent"): for an internal child, its pivot
// keys and child pointers; for a leaf child, its basement boundary keys
// (ptrs nil).
type route struct {
	keys  [][]byte
	heads []uint64 // head column of keys
	ptrs  []int64
}

func (r route) key(i int) []byte { return r.keys[i] }

// slotIndex returns which child/basement of the routed node covers key.
func (r route) slotIndex(key []byte) int {
	i, _ := kv.Search(len(r.keys), r.heads, key, true, r.key)
	return i
}

// bytes returns the serialized size of the route.
func (r route) bytes() int {
	s := 8
	for _, k := range r.keys {
		s += 4 + len(k)
	}
	s += len(r.ptrs) * ptrBytes
	return s
}

// own copies r's keys into one run of bytes, so that a parent's route views
// nothing its child owns, and builds their head column.
func (r *route) own() {
	size := 0
	for _, k := range r.keys {
		size += len(k)
	}
	run := make([]byte, 0, size)
	r.heads = make([]uint64, len(r.keys))
	for i, k := range r.keys {
		run = append(run, k...)
		r.keys[i] = run[len(run)-len(k) : len(run) : len(run)]
		r.heads[i] = kv.Head(k)
	}
}

// buffer holds the messages destined for one child, sorted by (key, seq),
// and their head column in lockstep.
type buffer struct {
	msgs  []kv.Message
	heads []uint64
	bytes int
}

func (b *buffer) key(i int) []byte { return b.msgs[i].Key }

// find returns the range [lo, hi) of messages for key.
func (b *buffer) find(key []byte) (int, int) {
	lo, eq := kv.Search(len(b.msgs), b.heads, key, false, b.key)
	hi := lo
	if eq {
		hi++
		for hi < len(b.msgs) && kv.Compare(b.msgs[hi].Key, key) == 0 {
			hi++
		}
	}
	return lo, hi
}

// merge folds run, a (key, seq)-sorted message run newer than b for every
// key both hold, into b, copying each message it keeps (a moved message must
// not pin the extent it was decoded from) and coalescing per key: a Put or
// Tombstone supersedes every older message of its key, in b or earlier in
// run, and Upserts stack after it in order. It merges in place from the
// back, moving each block of b's messages once and closing up what
// coalescing dropped at the end.
func (b *buffer) merge(run []kv.Message) {
	i, j := len(b.msgs), len(run)
	b.msgs = slices.Grow(b.msgs, j)[:i+j]
	b.heads = slices.Grow(b.heads, j)[:i+j]
	w := i + j // b.msgs[w:] is merged; b.msgs[:i] and run[:j] are to do
	for j > 0 {
		key := run[j-1].Key
		gt, _ := kv.Search(i, b.heads, key, true, b.key)
		w -= i - gt
		copy(b.msgs[w:], b.msgs[gt:i])
		copy(b.heads[w:], b.heads[gt:i])
		i = gt
		absorbed := false
		for ; j > 0 && kv.Compare(run[j-1].Key, key) == 0; j-- {
			if m := run[j-1]; !absorbed {
				w--
				b.msgs[w], b.heads[w] = m.Clone(), kv.Head(key)
				b.bytes += m.Size()
				absorbed = m.Kind != kv.Upsert
			}
		}
		for ; absorbed && i > 0 && kv.Compare(b.msgs[i-1].Key, key) == 0; i-- {
			b.bytes -= b.msgs[i-1].Size()
		}
	}
	if w > i {
		b.msgs = append(b.msgs[:i], b.msgs[w:]...)
		b.heads = append(b.heads[:i], b.heads[w:]...)
	}
}

// node is a decoded Bε-tree node.
type node struct {
	leaf   bool
	height int // 0 = leaf

	// Internal-node state.
	children   []int64
	pivots     [][]byte // len(children)-1 separators
	pivotHeads []uint64 // head column of pivots
	bufs       []buffer // per-child message buffers
	routes     []route  // per-child routing copies (Slotted layout only)

	// Leaf state.
	entries   []kv.Entry
	leafBytes int   // serialized bytes of entries
	cuts      []int // basement partition: basement i = entries[cuts[i]:cuts[i+1]]

	// rrCursor is the round-robin flush cursor (in-memory only; a fresh
	// cursor after a reload is harmless).
	rrCursor int

	// Residency: a Full node has paid for its whole extent and has every
	// field above populated, except a lazy leaf's entries and cuts: ext is
	// then its extent, leafBytes comes from the meta region, and slots[j]
	// holds basement j once a query has decoded it. A partial node (query
	// path only) carries the slots it has paid for in slots; its
	// full-content fields are nil.
	full  bool
	ext   []byte
	slots []atomic.Pointer[slotPayload]
}

func newLeafNode() *node {
	n := &node{leaf: true, full: true}
	n.recut(1)
	return n
}

func newInternalNode(height int) *node {
	return &node{height: height, full: true}
}

func newPartialNode(leaf bool, height, fanout int) *node {
	return &node{leaf: leaf, height: height, slots: make([]atomic.Pointer[slotPayload], fanout)}
}

func (n *node) pivot(i int) []byte { return n.pivots[i] }

// findChild routes key within the node's own pivots (Full internal nodes).
func (n *node) findChild(key []byte) int {
	i, _ := kv.Search(len(n.pivots), n.pivotHeads, key, true, n.pivot)
	return i
}

// findEntry locates key among the leaf entries.
func (n *node) findEntry(key []byte) (int, bool) {
	return kv.Search(len(n.entries), nil, key, false, func(i int) []byte { return n.entries[i].Key })
}

// bufBytesTotal sums buffered message bytes.
func (n *node) bufBytesTotal() int {
	s := 0
	for i := range n.bufs {
		s += n.bufs[i].bytes
	}
	return s
}

// metaBytes returns the serialized size of the meta region.
func (n *node) metaBytes() int {
	s := metaBase
	if n.leaf {
		return s
	}
	s += len(n.children) * ptrBytes
	for _, p := range n.pivots {
		s += 4 + len(p)
	}
	return s
}

// recut repartitions the leaf's entries into nb basements, balanced by
// bytes, deterministically. Called after every leaf mutation so that the
// encoded image and the parent's boundary copy stay in sync.
func (n *node) recut(nb int) {
	if nb < 1 {
		nb = 1
	}
	n.cuts = n.cuts[:0]
	n.cuts = append(n.cuts, 0)
	total := n.leafBytes
	acc := 0
	idx := 0
	for b := 1; b < nb; b++ {
		target := total * b / nb
		for idx < len(n.entries) && acc < target {
			acc += n.entries[idx].Size()
			idx++
		}
		n.cuts = append(n.cuts, idx)
	}
	n.cuts = append(n.cuts, len(n.entries))
}

// boundaries returns the leaf's basement boundary keys (first key of each
// basement after the first): the leaf's "pivot set" stored in its parent.
func (n *node) boundaries() route {
	r := route{keys: make([][]byte, 0, len(n.cuts)-2)}
	for _, c := range n.cuts[1 : len(n.cuts)-1] {
		if c < len(n.entries) {
			r.keys = append(r.keys, n.entries[c].Key)
		} else if len(n.entries) > 0 {
			// Degenerate trailing cut (empty last basements): the boundary
			// must sort strictly ABOVE every real key, or the last entry
			// would route into an empty basement. Appending a zero byte to
			// the last key gives the smallest such boundary.
			last := n.entries[len(n.entries)-1].Key
			b := make([]byte, len(last)+1)
			copy(b, last)
			r.keys = append(r.keys, b)
		} else {
			r.keys = append(r.keys, []byte{0xff})
		}
	}
	r.own()
	return r
}

// ownRoute returns the node's routing info as its parent should store it.
func (n *node) ownRoute() route {
	if n.leaf {
		return n.boundaries()
	}
	r := route{keys: slices.Clone(n.pivots), ptrs: slices.Clone(n.children)}
	r.own()
	return r
}

// ---------------------------------------------------------------------------
// Serialization

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func appendCRC(e *kv.Enc, start int) {
	e.U32(crcOf(e.Buf[start:]))
}

func checkCRC(d *kv.Dec, start int) error {
	payload := d.Buf[start:d.Off]
	want := d.U32()
	if d.Err != nil {
		return d.Err
	}
	if crcOf(payload) != want {
		return fmt.Errorf("betree: checksum mismatch: extent torn or corrupt")
	}
	return nil
}

func encodeRoute(e *kv.Enc, r route) {
	e.U32(uint32(len(r.keys)))
	for _, k := range r.keys {
		e.Bytes(k)
	}
	e.U32(uint32(len(r.ptrs)))
	for _, p := range r.ptrs {
		e.U64(uint64(p))
	}
}

func decodeRoute(d *kv.Dec) route {
	var r route
	nk := int(d.U32())
	for i := 0; i < nk && d.Err == nil; i++ {
		r.keys = append(r.keys, d.Bytes())
	}
	np := int(d.U32())
	for i := 0; i < np && d.Err == nil; i++ {
		r.ptrs = append(r.ptrs, int64(d.U64()))
	}
	return r
}

// encode serializes a Full node into an extent of cfg.NodeBytes.
func (n *node) encode(cfg Config) []byte {
	if !n.full || n.ext != nil {
		panic("betree: encoding a partial or lazy node")
	}
	if cfg.Layout == Slotted {
		return n.encodeSlotted(cfg)
	}
	return n.encodePacked(cfg)
}

func (n *node) encodePacked(cfg Config) []byte {
	var e kv.Enc
	e.Buf = make([]byte, 0, cfg.NodeBytes)
	if n.leaf {
		e.U8(magicLeaf)
		e.U8(0)
		e.U32(uint32(len(n.entries)))
		for _, ent := range n.entries {
			e.Entry(ent)
		}
	} else {
		e.U8(magicInternal)
		e.U8(uint8(n.height))
		e.U32(uint32(len(n.children)))
		for _, c := range n.children {
			e.U64(uint64(c))
		}
		for _, p := range n.pivots {
			e.Bytes(p)
		}
		for i := range n.bufs {
			e.U32(uint32(len(n.bufs[i].msgs)))
			for _, m := range n.bufs[i].msgs {
				e.Message(m)
			}
		}
	}
	appendCRC(&e, 0)
	if len(e.Buf) > cfg.NodeBytes {
		panic(fmt.Sprintf("betree: packed node overflows extent: %d > %d", len(e.Buf), cfg.NodeBytes))
	}
	// The node fit, so e.Buf still has the capacity it was made with and is
	// zero beyond its length: the extent is that buffer at full length.
	return e.Buf[:cfg.NodeBytes]
}

// encodeSlotted encodes each region in place, through an Enc over an empty
// window of the extent capped at the region's end: an overflow reallocates.
func (n *node) encodeSlotted(cfg Config) []byte {
	buf := make([]byte, cfg.NodeBytes)
	// Meta region.
	e := kv.Enc{Buf: buf[:0:cfg.metaCap()]}
	if n.leaf {
		// A leaf's meta region records its entry bytes, so a load can charge
		// the leaf whole before it decodes a basement.
		e.U8(magicLeaf)
		e.U8(0)
		e.U32(uint32(len(n.cuts) - 1))
		e.U32(uint32(n.leafBytes))
	} else {
		e.U8(magicInternal)
		e.U8(uint8(n.height))
		e.U32(uint32(len(n.children)))
		for _, c := range n.children {
			e.U64(uint64(c))
		}
		for _, p := range n.pivots {
			e.Bytes(p)
		}
	}
	appendCRC(&e, 0)
	if len(e.Buf) > cfg.metaCap() {
		panic(fmt.Sprintf("betree: meta region overflows: %d > %d", len(e.Buf), cfg.metaCap()))
	}
	// Slots.
	stride := cfg.slotStride()
	nslots := len(n.children)
	if n.leaf {
		nslots = len(n.cuts) - 1
	}
	for i := 0; i < nslots; i++ {
		start := cfg.metaCap() + i*stride
		s := kv.Enc{Buf: buf[start : start : start+stride]}
		if n.leaf {
			ents := n.entries[n.cuts[i]:n.cuts[i+1]]
			s.U32(uint32(len(ents)))
			for _, ent := range ents {
				s.Entry(ent)
			}
		} else {
			encodeRoute(&s, n.routes[i])
			s.U32(uint32(len(n.bufs[i].msgs)))
			for _, m := range n.bufs[i].msgs {
				s.Message(m)
			}
		}
		appendCRC(&s, 0)
		if len(s.Buf) > stride {
			panic(fmt.Sprintf("betree: slot %d overflows stride: %d > %d", i, len(s.Buf), stride))
		}
	}
	return buf
}

// decodeFull parses a whole extent into a Full node; a Slotted leaf stays
// lazy until materialize.
func decodeFull(cfg Config, buf []byte) (*node, error) {
	if cfg.Layout == Packed {
		return decodePacked(buf)
	}
	return decodeSlotted(cfg, buf)
}

func decodePacked(buf []byte) (*node, error) {
	d := kv.Dec{Buf: buf}
	n := &node{full: true}
	switch d.U8() {
	case magicLeaf:
		n.leaf = true
		d.U8()
		count := int(d.U32())
		if count > len(buf) {
			return nil, fmt.Errorf("betree: implausible entry count %d", count)
		}
		for i := 0; i < count && d.Err == nil; i++ {
			ent := d.Entry()
			n.entries = append(n.entries, ent)
			n.leafBytes += ent.Size()
		}
		n.recut(1)
	case magicInternal:
		n.height = int(d.U8())
		count := int(d.U32())
		if count < 1 || count > len(buf)/ptrBytes {
			return nil, fmt.Errorf("betree: implausible child count %d", count)
		}
		for i := 0; i < count && d.Err == nil; i++ {
			n.children = append(n.children, int64(d.U64()))
		}
		for i := 0; i < count-1 && d.Err == nil; i++ {
			n.pivots = append(n.pivots, d.Bytes())
		}
		n.bufs = make([]buffer, count)
		for i := 0; i < count && d.Err == nil; i++ {
			mc := int(d.U32())
			for j := 0; j < mc && d.Err == nil; j++ {
				m := d.Message()
				n.bufs[i].msgs = append(n.bufs[i].msgs, m)
				n.bufs[i].bytes += m.Size()
			}
		}
		n.index()
	default:
		return nil, fmt.Errorf("betree: bad node magic 0x%02x", buf[0])
	}
	if err := checkCRC(&d, 0); err != nil {
		return nil, err
	}
	return n, nil
}

// decodeMeta parses only the meta region of a Slotted extent.
func decodeMeta(cfg Config, buf []byte) (*node, int, error) {
	d := kv.Dec{Buf: buf}
	n := &node{}
	nslots := 0
	switch d.U8() {
	case magicLeaf:
		n.leaf = true
		d.U8()
		nslots = int(d.U32())
		n.leafBytes = int(d.U32())
	case magicInternal:
		n.height = int(d.U8())
		count := int(d.U32())
		nslots = count
		for i := 0; i < count && d.Err == nil; i++ {
			n.children = append(n.children, int64(d.U64()))
		}
		for i := 0; i < count-1 && d.Err == nil; i++ {
			n.pivots = append(n.pivots, d.Bytes())
		}
	default:
		return nil, 0, fmt.Errorf("betree: bad node magic 0x%02x", buf[0])
	}
	if err := checkCRC(&d, 0); err != nil {
		return nil, 0, err
	}
	return n, nslots, nil
}

// index builds the head columns of n's pivots, routes and buffers, in one
// allocation for the node.
func (n *node) index() {
	keys := len(n.pivots)
	for i := range n.routes {
		keys += len(n.routes[i].keys)
	}
	for i := range n.bufs {
		keys += len(n.bufs[i].msgs)
	}
	col := make([]uint64, 0, keys)
	n.pivotHeads = column(&col, len(n.pivots), n.pivot)
	for i := range n.routes {
		n.routes[i].heads = column(&col, len(n.routes[i].keys), n.routes[i].key)
	}
	for i := range n.bufs {
		n.bufs[i].heads = column(&col, len(n.bufs[i].msgs), n.bufs[i].key)
	}
}

// slotPayload is a decoded slot: for an internal node, the child's route and
// the buffered messages; for a leaf, the basement entries and their head
// column (nil until a search uses the basement, and on a materialized leaf).
type slotPayload struct {
	route   route
	buf     buffer
	entries []kv.Entry
	heads   []uint64
	bytes   int // serialized content size
}

// index builds p's head columns in one allocation.
func (p *slotPayload) index() {
	col := make([]uint64, 0, len(p.route.keys)+len(p.buf.msgs)+len(p.entries))
	p.route.heads = column(&col, len(p.route.keys), p.route.key)
	p.buf.heads = column(&col, len(p.buf.msgs), p.buf.key)
	p.heads = column(&col, len(p.entries), func(i int) []byte { return p.entries[i].Key })
}

// decodeSlot parses one slot's bytes (already sliced to the stride). A leaf
// slot's entries are appended to ents, and p.entries is the result. A fresh
// slice is sized from the slot's count, capped at what its bytes can hold.
// The head columns are left to the caller (slotPayload.index, node.index).
func decodeSlot(leaf bool, buf []byte, ents []kv.Entry) (slotPayload, error) {
	d := kv.Dec{Buf: buf}
	var p slotPayload
	if leaf {
		count := int(d.U32())
		p.entries = ents
		if ents == nil {
			p.entries = make([]kv.Entry, 0, min(count, len(buf)/kv.EncodedEntrySize(nil, nil)))
		}
		for i := 0; i < count && d.Err == nil; i++ {
			p.entries = append(p.entries, d.Entry())
		}
	} else {
		p.route = decodeRoute(&d)
		count := int(d.U32())
		p.buf.msgs = make([]kv.Message, 0, min(count, len(buf)/kv.EncodedMessageSize(nil, nil)))
		for i := 0; i < count && d.Err == nil; i++ {
			m := d.Message()
			p.buf.msgs = append(p.buf.msgs, m)
			p.buf.bytes += m.Size()
		}
	}
	p.bytes = d.Off
	if err := checkCRC(&d, 0); err != nil {
		return slotPayload{}, err
	}
	return p, nil
}

func decodeSlotted(cfg Config, buf []byte) (*node, error) {
	n, nslots, err := decodeMeta(cfg, buf)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		n.ext = buf
		n.slots = make([]atomic.Pointer[slotPayload], nslots)
	} else {
		n.bufs = make([]buffer, nslots)
		n.routes = make([]route, nslots)
		for i := 0; i < nslots; i++ {
			p, err := decodeSlot(false, cfg.slot(buf, i), nil)
			if err != nil {
				return nil, err
			}
			n.routes[i], n.bufs[i] = p.route, p.buf
		}
		n.index()
	}
	n.full = true
	return n, nil
}

// basement returns basement j of a lazy leaf, decoding it and checking its
// crc on first use, and publishing it for every reader of the node. Its head
// column is built the first time a search (index) uses it, and published
// with a copy of the basement: a scan reads a basement in order and never
// pays for one.
func (n *node) basement(cfg Config, j int, index bool) (*slotPayload, error) {
	p := n.slots[j].Load()
	if p != nil && (!index || p.heads != nil || len(p.entries) == 0) {
		return p, nil
	}
	var q slotPayload
	if p != nil {
		q = *p
	} else {
		var err error
		if q, err = decodeSlot(true, cfg.slot(n.ext, j), nil); err != nil {
			return nil, err
		}
	}
	if index {
		q.index()
	}
	n.slots[j].CompareAndSwap(p, &q) // a reader that published first wins
	return n.slots[j].Load(), nil
}

// materialize decodes every basement of a lazy leaf into one slice, sized
// from the slot counts, for a mutation: every crc is checked again, and the
// entry bytes must add up to what the meta region recorded. The owner alone
// calls it, with no reader running.
func (n *node) materialize(cfg Config) error {
	if n.ext == nil {
		return nil
	}
	total := 0
	for j := range n.slots {
		total += int((&kv.Dec{Buf: cfg.slot(n.ext, j)}).U32())
	}
	entries := make([]kv.Entry, 0, min(total, len(n.ext)/kv.EncodedEntrySize(nil, nil)))
	cuts := make([]int, 1, len(n.slots)+1)
	bytes := 0
	for j := range n.slots {
		p, err := decodeSlot(true, cfg.slot(n.ext, j), entries)
		if err != nil {
			return err
		}
		bytes += p.bytes - 4 // the slot's entries: all of it past the count
		entries = p.entries
		cuts = append(cuts, len(entries))
	}
	if bytes != n.leafBytes {
		return fmt.Errorf("betree: leaf meta records %d entry bytes, its basements hold %d", n.leafBytes, bytes)
	}
	n.entries, n.cuts, n.ext, n.slots = entries, cuts, nil, nil
	return nil
}

// chargeSize returns the cache charge for the node's resident content. A
// lazy leaf is charged what it will hold once materialized.
func (n *node) chargeSize(cfg Config) int64 {
	if n.full {
		s := n.metaBytes()
		if n.leaf {
			basements := len(n.cuts) - 1
			if n.ext != nil {
				basements = len(n.slots)
			}
			s += n.leafBytes + slotHeader*max(1, basements)
		} else {
			s += n.bufBytesTotal()
			for i := range n.routes {
				s += n.routes[i].bytes() + slotHeader
			}
		}
		return int64(s)
	}
	s := metaBase
	for i := range n.slots {
		if p := n.slots[i].Load(); p != nil {
			s += slotHeader + p.bytes
		}
	}
	return int64(s)
}
