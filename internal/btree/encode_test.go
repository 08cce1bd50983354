package btree

import (
	"encoding/hex"
	"fmt"
	"testing"
	"unsafe"
)

// Extents of goldenLeaf and goldenInternal at 96 bytes, as the two-buffer
// encoder wrote them.
const (
	goldenLeafHex     = "b100000003000000056170706c6500000003726564000000036669670000000a707572706c652d697368000000046b69776900000000992f90f20000000000000000000000000000000000000000000000000000000000000000000000000000"
	goldenInternalHex = "b200000003000000000000100000000002000000000000000000003000000000016700000004706561726e71725f0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
)

func goldenLeaf() *node {
	n := newLeaf()
	n.insertEntry([]byte("apple"), []byte("red"))
	n.insertEntry([]byte("kiwi"), []byte{})
	n.insertEntry([]byte("fig"), []byte("purple-ish"))
	return n
}

func goldenInternal() *node {
	return &node{
		pivots:   [][]byte{[]byte("g"), []byte("pear")},
		children: []int64{4096, 1 << 33, 12288},
	}
}

// TestEncodeGolden pins the extent bytes of a leaf and an internal node to
// what the two-buffer encoder wrote (recorded at the commit before encode
// started returning its build buffer): same payload, crc directly after it,
// zeros to the end of the extent.
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

// TestEncodeAllocatesOnce: a write-back costs one extent-sized buffer.
func TestEncodeAllocatesOnce(t *testing.T) {
	leaf, internal := goldenLeaf(), goldenInternal()
	var sink []byte
	if a := testing.AllocsPerRun(100, func() { sink = leaf.encode(4096) }); a != 1 {
		t.Errorf("leaf encode: %v allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = internal.encode(4096) }); a != 1 {
		t.Errorf("internal encode: %v allocations, want 1", a)
	}
	_ = sink
}

// TestDecodeAllocsIndependentOfEntries: decoding a leaf costs the same two
// allocations (the node and its entry slice) whether it holds 8 entries or
// 150 — the keys and values are views of the extent.
func TestDecodeAllocsIndependentOfEntries(t *testing.T) {
	allocs := func(entries int) float64 {
		leaf := newLeaf()
		for i := 0; i < entries; i++ {
			leaf.insertEntry(key(i), value(i))
		}
		ext := leaf.encode(8 << 10)
		return testing.AllocsPerRun(50, func() {
			if n, err := decodeNode(ext); err != nil || len(n.entries) != entries {
				t.Fatalf("decode of %d entries: %v", entries, err)
			}
		})
	}
	small, large := allocs(8), allocs(150)
	if small != large || large > 2 {
		t.Fatalf("leaf decode: %v allocations at 8 entries, %v at 150; want the same, at most 2", small, large)
	}
}

// TestMovedKeysOwned: a key that moves between nodes — a pivot an internal
// split promotes, a pivot or an entry a borrow moves, on either side — is a
// copy, not a view of the extent it was decoded in: the node it moves into
// would otherwise keep that extent alive for as long as it stays resident.
func TestMovedKeysOwned(t *testing.T) {
	decoded := func(leaf bool, size, from int) (*node, []byte) {
		n := newInternal()
		if leaf {
			n = newLeaf()
		}
		for i := 0; i < size; i++ {
			if leaf {
				n.insertEntry(key(from+i), value(from+i))
				continue
			}
			n.children = append(n.children, int64(from+i)*4096)
			if i > 0 {
				n.pivots = append(n.pivots, key(from+i))
			}
		}
		n.size = n.computeSize()
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
	tr := &Tree{cfg: Config{NodeBytes: 1024, MaxKeyBytes: 32, MaxValueBytes: 128}}

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
			for _, e := range child.entries {
				moved = append(moved, e.Key, e.Value)
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
