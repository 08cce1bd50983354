// In-memory node representation and on-disk serialization for the Bε-tree.
//
// A node object may be Full (everything decoded and paid for) or partial
// (only some slots resident). Queries in SlotOnly/MetaPlusSlot modes create
// partial nodes by reading single slots; all mutations (message inserts,
// flushes, splits, merges) operate on Full nodes, so a dirty node is always
// Full and write-back always rewrites the whole extent, exactly as the
// paper's flush analysis assumes.

package betree

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"iomodels/internal/kv"
)

const (
	magicLeaf     = 0xE1
	magicInternal = 0xE2
)

func logf(x float64) float64 { return math.Log(x) }

// route is the routing information for one child, stored in the parent
// (Theorem 9's "pivots in the parent"): for an internal child, its pivot
// keys and child pointers; for a leaf child, its basement boundary keys
// (ptrs nil).
type route struct {
	keys [][]byte
	ptrs []int64
}

// slotIndex returns which child/basement of the routed node covers key.
func (r route) slotIndex(key []byte) int {
	return sort.Search(len(r.keys), func(i int) bool {
		return kv.Compare(key, r.keys[i]) < 0
	})
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

// clone deep-copies r (routes are copied from child to parent, which then
// evolve independently until the next sync).
func (r route) clone() route {
	out := route{keys: make([][]byte, len(r.keys))}
	for i, k := range r.keys {
		out.keys[i] = append([]byte(nil), k...)
	}
	if r.ptrs != nil {
		out.ptrs = append([]int64(nil), r.ptrs...)
	}
	return out
}

// buffer holds the messages destined for one child, sorted by (key, seq).
type buffer struct {
	msgs  []kv.Message
	bytes int
}

// find returns the range [lo, hi) of messages for key.
func (b *buffer) find(key []byte) (int, int) {
	lo := sort.Search(len(b.msgs), func(i int) bool {
		return kv.Compare(b.msgs[i].Key, key) >= 0
	})
	hi := lo
	for hi < len(b.msgs) && kv.Compare(b.msgs[hi].Key, key) == 0 {
		hi++
	}
	return lo, hi
}

// add inserts m in (key, seq) order, coalescing: an absorbing message (Put
// or Tombstone) supersedes all earlier messages for the same key in this
// buffer.
func (b *buffer) add(m kv.Message) {
	lo, hi := b.find(m.Key)
	if m.Kind != kv.Upsert && hi > lo {
		for _, old := range b.msgs[lo:hi] {
			b.bytes -= old.Size()
		}
		b.msgs = append(b.msgs[:lo], b.msgs[hi:]...)
		hi = lo
	}
	b.msgs = append(b.msgs, kv.Message{})
	copy(b.msgs[hi+1:], b.msgs[hi:])
	b.msgs[hi] = m
	b.bytes += m.Size()
}

// node is a decoded Bε-tree node.
type node struct {
	leaf   bool
	height int // 0 = leaf

	// Internal-node state.
	children []int64
	pivots   [][]byte // len(children)-1 separators
	bufs     []buffer // per-child message buffers
	routes   []route  // per-child routing copies (Slotted layout only)

	// Leaf state.
	entries   []kv.Entry
	leafBytes int   // serialized bytes of entries
	cuts      []int // basement partition: basement i = entries[cuts[i]:cuts[i+1]]

	// rrCursor is the round-robin flush cursor (in-memory only; a fresh
	// cursor after a reload is harmless).
	rrCursor int

	// Residency: a Full node has every field above populated and paid for.
	// A partial node (query path only) instead carries the slots it has
	// paid for in the partial map; its full-content fields are nil.
	full    bool
	partial map[int]slotPayload // slot index -> decoded content (when !full)
	charged int64               // bytes charged to the cache
}

func newLeafNode() *node {
	n := &node{leaf: true, full: true}
	n.recut(1)
	return n
}

func newInternalNode(height int) *node {
	return &node{height: height, full: true}
}

func newPartialNode(leaf bool, height int) *node {
	return &node{leaf: leaf, height: height, partial: map[int]slotPayload{}}
}

// findChild routes key within the node's own pivots (Full internal nodes).
func (n *node) findChild(key []byte) int {
	return sort.Search(len(n.pivots), func(i int) bool {
		return kv.Compare(key, n.pivots[i]) < 0
	})
}

// findEntry locates key among the leaf entries.
func (n *node) findEntry(key []byte) (int, bool) {
	i := sort.Search(len(n.entries), func(i int) bool {
		return kv.Compare(n.entries[i].Key, key) >= 0
	})
	if i < len(n.entries) && kv.Compare(n.entries[i].Key, key) == 0 {
		return i, true
	}
	return i, false
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
	var r route
	for _, c := range n.cuts[1 : len(n.cuts)-1] {
		if c < len(n.entries) {
			r.keys = append(r.keys, append([]byte(nil), n.entries[c].Key...))
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
	return r
}

// ownRoute returns the node's routing info as its parent should store it.
func (n *node) ownRoute() route {
	if n.leaf {
		return n.boundaries()
	}
	r := route{keys: make([][]byte, len(n.pivots)), ptrs: append([]int64(nil), n.children...)}
	for i, p := range n.pivots {
		r.keys[i] = append([]byte(nil), p...)
	}
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
	if !n.full {
		panic("betree: encoding a partial node")
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

func (n *node) encodeSlotted(cfg Config) []byte {
	buf := make([]byte, cfg.NodeBytes)
	// Meta region.
	var e kv.Enc
	if n.leaf {
		e.U8(magicLeaf)
		e.U8(0)
		e.U32(uint32(len(n.cuts) - 1))
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
	copy(buf, e.Buf)
	// Slots.
	stride := cfg.slotStride()
	nslots := len(n.children)
	if n.leaf {
		nslots = len(n.cuts) - 1
	}
	for i := 0; i < nslots; i++ {
		var s kv.Enc
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
		copy(buf[cfg.metaCap()+i*stride:], s.Buf)
	}
	return buf
}

// decodeFull parses a whole extent into a Full node.
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

// slotPayload is a decoded slot: for an internal node, the child's route and
// the buffered messages; for a leaf, the basement entries.
type slotPayload struct {
	route   route
	msgs    []kv.Message
	entries []kv.Entry
	bytes   int // serialized content size
}

// decodeSlot parses one slot's bytes (already sliced to the stride).
func decodeSlot(leaf bool, buf []byte) (slotPayload, error) {
	d := kv.Dec{Buf: buf}
	var p slotPayload
	if leaf {
		count := int(d.U32())
		for i := 0; i < count && d.Err == nil; i++ {
			p.entries = append(p.entries, d.Entry())
		}
	} else {
		p.route = decodeRoute(&d)
		count := int(d.U32())
		for i := 0; i < count && d.Err == nil; i++ {
			p.msgs = append(p.msgs, d.Message())
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
	stride := cfg.slotStride()
	if n.leaf {
		n.cuts = []int{0}
		for i := 0; i < nslots; i++ {
			p, err := decodeSlot(true, buf[cfg.metaCap()+i*stride:cfg.metaCap()+(i+1)*stride])
			if err != nil {
				return nil, err
			}
			n.entries = append(n.entries, p.entries...)
			for _, e := range p.entries {
				n.leafBytes += e.Size()
			}
			n.cuts = append(n.cuts, len(n.entries))
		}
	} else {
		n.bufs = make([]buffer, nslots)
		n.routes = make([]route, nslots)
		for i := 0; i < nslots; i++ {
			p, err := decodeSlot(false, buf[cfg.metaCap()+i*stride:cfg.metaCap()+(i+1)*stride])
			if err != nil {
				return nil, err
			}
			n.routes[i] = p.route
			n.bufs[i].msgs = p.msgs
			for _, m := range p.msgs {
				n.bufs[i].bytes += m.Size()
			}
		}
	}
	n.full = true
	return n, nil
}

// chargeSize returns the cache charge for the node's resident content.
func (n *node) chargeSize(cfg Config) int64 {
	if n.full {
		s := n.metaBytes()
		if n.leaf {
			s += n.leafBytes + slotHeader*maxi(1, len(n.cuts)-1)
		} else {
			s += n.bufBytesTotal()
			for i := range n.routes {
				s += n.routes[i].bytes() + slotHeader
			}
		}
		return int64(s)
	}
	s := metaBase
	for _, p := range n.partial {
		s += slotHeader + p.bytes
	}
	return int64(s)
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
