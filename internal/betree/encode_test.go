package betree

import (
	"encoding/hex"
	"testing"

	"iomodels/internal/kv"
)

// Packed extents of goldenPackedLeaf and goldenPackedInternal at 128 bytes,
// as the two-buffer encoder wrote them.
const (
	goldenPackedLeafHex     = "e10000000003000000056170706c6500000003726564000000036669670000000a707572706c652d697368000000046b6977690000000014791958000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
	goldenPackedInternalHex = "e2020000000200000000000010000000000200000000000000016d0000000101000000000000000700000001620000000276310000000202000000000000000900000001710000000003000000000000000b000000017a00000008fffffffffffffffdde5c9b8b00000000000000000000000000000000000000000000000000"
)

func goldenPackedLeaf() *node {
	return &node{leaf: true, full: true, entries: []kv.Entry{
		{Key: []byte("apple"), Value: []byte("red")},
		{Key: []byte("fig"), Value: []byte("purple-ish")},
		{Key: []byte("kiwi"), Value: []byte{}},
	}}
}

func goldenPackedInternal() *node {
	return &node{
		full: true, height: 2,
		children: []int64{4096, 1 << 33},
		pivots:   [][]byte{[]byte("m")},
		bufs: []buffer{
			{msgs: []kv.Message{{Kind: kv.Put, Seq: 7, Key: []byte("b"), Value: []byte("v1")}}},
			{msgs: []kv.Message{
				{Kind: kv.Tombstone, Seq: 9, Key: []byte("q")},
				{Kind: kv.Upsert, Seq: 11, Key: []byte("z"), Value: kv.UpsertDelta(-3)},
			}},
		},
	}
}

// TestEncodePackedGolden pins the packed extent bytes of a leaf and an
// internal node to what the two-buffer encoder wrote (recorded at the commit
// before encodePacked started returning its build buffer).
func TestEncodePackedGolden(t *testing.T) {
	cfg := Config{NodeBytes: 128, Layout: Packed}
	for _, c := range []struct {
		name string
		n    *node
		want string
	}{
		{"leaf", goldenPackedLeaf(), goldenPackedLeafHex},
		{"internal", goldenPackedInternal(), goldenPackedInternalHex},
	} {
		got := c.n.encode(cfg)
		if len(got) != cfg.NodeBytes || cap(got) != cfg.NodeBytes {
			t.Errorf("%s: extent len %d cap %d, want %d", c.name, len(got), cap(got), cfg.NodeBytes)
		}
		if h := hex.EncodeToString(got); h != c.want {
			t.Errorf("%s extent:\n got %s\nwant %s", c.name, h, c.want)
		}
		if _, err := decodePacked(got); err != nil {
			t.Errorf("%s: decode of the extent: %v", c.name, err)
		}
	}
}

// TestEncodePackedAllocatesOnce: a write-back costs one extent-sized buffer.
func TestEncodePackedAllocatesOnce(t *testing.T) {
	cfg := Config{NodeBytes: 4096, Layout: Packed}
	var sink []byte
	for _, n := range []*node{goldenPackedLeaf(), goldenPackedInternal()} {
		if a := testing.AllocsPerRun(100, func() { sink = n.encode(cfg) }); a != 1 {
			t.Errorf("packed encode (leaf=%v): %v allocations, want 1", n.leaf, a)
		}
	}
	_ = sink
}
