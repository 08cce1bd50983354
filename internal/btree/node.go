// Node representation and on-disk serialization for the B-tree.
//
// Nodes are serialized into fixed-size extents of Config.NodeBytes — the
// paper's tunable B. Every load reads the whole extent and every store
// writes the whole extent, so the tree's IO sizes are exactly its node size,
// as in the classic B-tree analyses of §5.

package btree

import (
	"fmt"
	"hash/crc32"
	"sort"

	"iomodels/internal/kv"
)

const (
	magicLeaf     = 0xB1
	magicInternal = 0xB2

	// headerBytes is magic(1) + count(4); footerBytes is the crc32.
	headerBytes = 5
	footerBytes = 4
	// baseNodeBytes is the serialized size of an empty node.
	baseNodeBytes = headerBytes + footerBytes
	// childRefBytes is the serialized size of one child pointer.
	childRefBytes = 8
)

// node is a decoded B-tree node. Exactly one of (entries) and
// (pivots, children) is populated, according to leaf.
type node struct {
	leaf     bool
	entries  []kv.Entry // leaf payload, sorted by key
	pivots   [][]byte   // internal: len(children)-1 separators
	children []int64    // internal: child extent offsets
	size     int        // current serialized size in bytes
}

func newLeaf() *node { return &node{leaf: true, size: baseNodeBytes} }

func newInternal() *node { return &node{size: baseNodeBytes} }

// computeSize recomputes the serialized size from scratch (used by
// consistency checks; mutations maintain size incrementally).
func (n *node) computeSize() int {
	s := baseNodeBytes
	if n.leaf {
		for _, e := range n.entries {
			s += e.Size()
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
	return sort.Search(len(n.pivots), func(i int) bool {
		return kv.Compare(key, n.pivots[i]) < 0
	})
}

// findEntry returns the position of key in a leaf and whether it is present.
func (n *node) findEntry(key []byte) (int, bool) {
	i := sort.Search(len(n.entries), func(i int) bool {
		return kv.Compare(n.entries[i].Key, key) >= 0
	})
	if i < len(n.entries) && kv.Compare(n.entries[i].Key, key) == 0 {
		return i, true
	}
	return i, false
}

// insertEntry inserts or replaces (key, value) in a leaf and returns the
// change in serialized size.
func (n *node) insertEntry(key, value []byte) int {
	i, found := n.findEntry(key)
	if found {
		delta := len(value) - len(n.entries[i].Value)
		n.entries[i].Value = value
		n.size += delta
		return delta
	}
	n.entries = append(n.entries, kv.Entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = kv.Entry{Key: key, Value: value}
	delta := kv.EncodedEntrySize(key, value)
	n.size += delta
	return delta
}

// removeEntry deletes key from a leaf if present, reporting whether it was.
func (n *node) removeEntry(key []byte) bool {
	i, found := n.findEntry(key)
	if !found {
		return false
	}
	n.size -= n.entries[i].Size()
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	return true
}

// encode serializes n into a buffer of exactly nodeBytes (zero padded) and
// appends a crc32 of the payload so torn or corrupted extents are detected
// on load.
func (n *node) encode(nodeBytes int) []byte {
	var e kv.Enc
	e.Buf = make([]byte, 0, nodeBytes)
	if n.leaf {
		e.U8(magicLeaf)
		e.U32(uint32(len(n.entries)))
		for _, ent := range n.entries {
			e.Entry(ent)
		}
	} else {
		e.U8(magicInternal)
		e.U32(uint32(len(n.children)))
		for _, c := range n.children {
			e.U64(uint64(c))
		}
		for _, p := range n.pivots {
			e.Bytes(p)
		}
	}
	if len(e.Buf)+footerBytes > nodeBytes {
		panic(fmt.Sprintf("btree: node overflows extent: %d+%d > %d", len(e.Buf), footerBytes, nodeBytes))
	}
	// CRC goes at the end of the payload; the decoder re-derives the payload
	// length from the structure, so store the crc immediately after it. The
	// node fit, so e.Buf still has the capacity it was made with and is zero
	// beyond its length: the extent is that buffer at full length.
	e.U32(crc32.ChecksumIEEE(e.Buf))
	return e.Buf[:nodeBytes]
}

// decodeNode parses an extent produced by encode, verifying the checksum.
func decodeNode(buf []byte) (*node, error) {
	d := kv.Dec{Buf: buf}
	n := &node{}
	switch d.U8() {
	case magicLeaf:
		n.leaf = true
		count := int(d.U32())
		if count > len(buf) { // entries are multi-byte; a count beyond this is corruption
			return nil, fmt.Errorf("btree: implausible entry count %d", count)
		}
		n.entries = make([]kv.Entry, 0, count)
		for i := 0; i < count && d.Err == nil; i++ {
			n.entries = append(n.entries, d.Entry())
		}
	case magicInternal:
		count := int(d.U32())
		if count < 1 || count > len(buf)/childRefBytes {
			return nil, fmt.Errorf("btree: implausible child count %d", count)
		}
		n.children = make([]int64, 0, count)
		for i := 0; i < count && d.Err == nil; i++ {
			n.children = append(n.children, int64(d.U64()))
		}
		n.pivots = make([][]byte, 0, count-1)
		for i := 0; i < count-1 && d.Err == nil; i++ {
			n.pivots = append(n.pivots, d.Bytes())
		}
	default:
		return nil, fmt.Errorf("btree: bad node magic 0x%02x", buf[0])
	}
	if d.Err != nil {
		return nil, d.Err
	}
	payload := d.Off
	if payload+footerBytes > len(buf) {
		return nil, fmt.Errorf("btree: truncated node footer")
	}
	want := uint32(buf[payload])<<24 | uint32(buf[payload+1])<<16 | uint32(buf[payload+2])<<8 | uint32(buf[payload+3])
	if got := crc32.ChecksumIEEE(buf[:payload]); got != want {
		return nil, fmt.Errorf("btree: checksum mismatch: extent torn or corrupt")
	}
	n.size = payload + footerBytes
	return n, nil
}
