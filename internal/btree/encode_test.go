package btree

import (
	"encoding/hex"
	"testing"
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
