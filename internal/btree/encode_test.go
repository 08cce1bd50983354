package btree

import (
	"encoding/hex"
	"fmt"
	"testing"
	"unsafe"
)

// Extents of goldenLeaf and goldenInternal at 96 bytes: the leaf as its
// slotted page, the internal node as the two-buffer encoder wrote it.
const (
	goldenLeafHex     = "b30000000300000050000000370000004800000000000000000000000000000000000000000000000000000000000000000000000000000003000a666967707572706c652d697368000400006b697769000500036170706c65726564c67bc53b"
	goldenInternalHex = "b200000003000000000000100000000002000000000000000000003000000000016700000004706561726e71725f0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
)

func goldenLeaf() *node {
	n := newLeaf(96)
	insert(n, []byte("apple"), []byte("red"))
	insert(n, []byte("kiwi"), []byte{})
	insert(n, []byte("fig"), []byte("purple-ish"))
	return n
}

func goldenInternal() *node {
	return newInternal([][]byte{[]byte("g"), []byte("pear")}, []int64{4096, 1 << 33, 12288})
}

// TestEncodeGolden pins the extent bytes of a leaf and an internal node. The
// internal node's are what the two-buffer encoder wrote (recorded at the
// commit before encode started returning its build buffer): payload, crc
// directly after it, zeros to the end of the extent. The leaf's are its
// slotted page (node.go): header, three slots in key order, the heap grown
// down in insertion order, the crc of everything before it in the last four.
func TestEncodeGolden(t *testing.T) {
	const nodeBytes = 96
	for _, c := range []struct {
		name string
		n    *node
		want string
	}{
		{"leaf", goldenLeaf(), goldenLeafHex},
		{"internal", goldenInternal(), goldenInternalHex},
	} {
		got := c.n.encode(nodeBytes)
		if len(got) != nodeBytes || cap(got) != nodeBytes {
			t.Errorf("%s: extent len %d cap %d, want %d", c.name, len(got), cap(got), nodeBytes)
		}
		if h := hex.EncodeToString(got); h != c.want {
			t.Errorf("%s extent:\n got %s\nwant %s", c.name, h, c.want)
		}
		if back, err := decodeNode(got); err != nil || back.size != c.n.computeSize() {
			t.Errorf("%s: decode of the extent: size %d, err %v", c.name, back.size, err)
		}
	}
}

// TestEncodeAllocatesOnce: a leaf's write-back hands over its own page and
// allocates nothing; an internal node's costs one extent-sized buffer. Each
// leaf run seals a private page of its own, so every one writes a count and
// a crc.
func TestEncodeAllocatesOnce(t *testing.T) {
	leaves := make([]*node, 102)
	for i := range leaves {
		leaves[i] = goldenLeaf()
	}
	internal := goldenInternal()
	var sink []byte
	if a := testing.AllocsPerRun(100, func() {
		sink, leaves = leaves[0].encode(96), leaves[1:]
	}); a != 0 {
		t.Errorf("leaf encode: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = internal.encode(4096) }); a != 1 {
		t.Errorf("internal encode: %v allocations, want 1", a)
	}
	_ = sink
}

// TestDecodeAllocsIndependentOfEntries: loading a leaf costs two
// allocations, the node and its head column, whether it holds 8 entries or
// 150 — the page is the extent the read lent, validated where it lies.
func TestDecodeAllocsIndependentOfEntries(t *testing.T) {
	allocs := func(entries int) float64 {
		leaf := newLeaf(8 << 10)
		for i := 0; i < entries; i++ {
			insert(leaf, key(i), value(i))
		}
		ext := leaf.encode(8 << 10)
		return testing.AllocsPerRun(50, func() {
			if n, err := decodeNode(ext); err != nil || n.count != entries {
				t.Fatalf("decode of %d entries: %v", entries, err)
			}
		})
	}
	small, large := allocs(8), allocs(150)
	if small != 2 || large != 2 {
		t.Fatalf("leaf decode: %v allocations at 8 entries, %v at 150; want 2 at both", small, large)
	}
}

// TestMovedKeysOwned: a key that moves between nodes — a pivot an internal
// split promotes, a pivot or an entry a borrow moves, on either side — is a
// copy, not a view of the extent it was decoded in: the node it moves into
// would otherwise keep that extent alive for as long as it stays resident.
func TestMovedKeysOwned(t *testing.T) {
	decoded := func(leaf bool, size, from int) (*node, []byte) {
		n := newLeaf(4096)
		var pivots [][]byte
		var children []int64
		for i := 0; i < size; i++ {
			if leaf {
				insert(n, key(from+i), value(from+i))
				continue
			}
			children = append(children, int64(from+i)*4096)
			if i > 0 {
				pivots = append(pivots, key(from+i))
			}
		}
		if !leaf {
			n = newInternal(pivots, children)
		}
		ext := n.encode(4096)
		d, err := decodeNode(ext)
		if err != nil {
			t.Fatal(err)
		}
		return d, ext
	}
	views := func(p []byte, exts ...[]byte) bool {
		a := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		for _, e := range exts {
			if start := uintptr(unsafe.Pointer(&e[0])); a >= start && a < start+uintptr(len(e)) {
				return true
			}
		}
		return false
	}
	tr := &Tree{cfg: Config{NodeBytes: 1024, MaxKeyBytes: 32, MaxValueBytes: 128}, scratch: make([]byte, 1024)}

	n, ext := decoded(false, 8, 0)
	if _, pivot := tr.splitNode(n); views(pivot, ext) {
		t.Errorf("split: promoted pivot %q is a view of the split node's extent", pivot)
	}
	for _, leaf := range []bool{false, true} {
		for _, fromRight := range []bool{true, false} {
			// A sparse child borrows from a full sibling through their parent.
			parent, parentExt := decoded(false, 3, 0)
			child, childExt := decoded(leaf, 2, 100)
			sib, sibExt := decoded(leaf, 30, 200)
			if fromRight {
				tr.borrowFromRight(parent, 0, child, sib)
			} else {
				tr.borrowFromLeft(parent, 1, child, sib)
			}
			what := fmt.Sprintf("borrow (leaf %v, from right %v)", leaf, fromRight)
			if child.size < tr.minBytes() {
				t.Fatalf("%s moved too little: child size %d", what, child.size)
			}
			moved := append([][]byte(nil), child.pivots...)
			for i := 0; i < child.count; i++ {
				k, v := child.entry(i)
				moved = append(moved, k, v)
			}
			for _, p := range moved {
				if views(p, parentExt, sibExt) {
					t.Errorf("%s: child holds %q as a view of another node's extent", what, p)
				}
			}
			for _, p := range parent.pivots {
				if views(p, childExt, sibExt) {
					t.Errorf("%s: parent pivot %q is a view of a child's extent", what, p)
				}
			}
		}
	}
}
