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

// slottedCfg is a small Slotted configuration the golden nodes fit.
var slottedCfg = Config{NodeBytes: 4096, MaxFanout: 4, MaxKeyBytes: 16, MaxValueBytes: 32, Layout: Slotted}

// slottedNodes returns the golden nodes with what the Slotted layout adds: a
// leaf cut into basements, and a route per child.
func slottedNodes() []*node {
	leaf := goldenPackedLeaf()
	leaf.leafBytes = entryBytes(leaf.entries)
	leaf.recut(slottedCfg.MaxFanout)
	internal := goldenPackedInternal()
	internal.routes = []route{{keys: [][]byte{[]byte("c")}}, {keys: [][]byte{[]byte("p"), []byte("t")}, ptrs: []int64{1, 2, 3}}}
	return []*node{leaf, internal}
}

// TestEncodeAllocatesOnce: a write-back costs one extent-sized buffer, in
// both layouts — the Slotted encoder writes its meta region and every slot
// straight into the extent.
func TestEncodeAllocatesOnce(t *testing.T) {
	var sink []byte
	for _, c := range []struct {
		cfg   Config
		nodes []*node
	}{
		{Config{NodeBytes: 4096, Layout: Packed}, []*node{goldenPackedLeaf(), goldenPackedInternal()}},
		{slottedCfg, slottedNodes()},
	} {
		for _, n := range c.nodes {
			if a := testing.AllocsPerRun(100, func() { sink = n.encode(c.cfg) }); a != 1 {
				t.Errorf("%v encode (leaf=%v): %v allocations, want 1", c.cfg.Layout, n.leaf, a)
			}
			if _, err := decodeFull(c.cfg, n.encode(c.cfg)); err != nil {
				t.Errorf("%v (leaf=%v): decode of the extent: %v", c.cfg.Layout, n.leaf, err)
			}
		}
	}
	_ = sink
}

// TestEncodeSlottedOverflowPanics: a slot encoded in place that outgrows its
// stride fails loudly instead of spilling into the next slot.
func TestEncodeSlottedOverflowPanics(t *testing.T) {
	leaf := newLeafNode()
	for i := 0; i < 40; i++ {
		leaf.entries = append(leaf.entries, kv.Entry{Key: key(i), Value: make([]byte, 32)})
	}
	leaf.leafBytes = entryBytes(leaf.entries)
	leaf.recut(1) // every entry in the first basement: far more than a stride
	defer func() {
		if recover() == nil {
			t.Fatal("an overflowing slot encoded without a panic")
		}
	}()
	leaf.encode(slottedCfg)
}

// TestDecodeAllocsIndependentOfEntries: decoding a whole Slotted leaf and
// materializing it costs the same few allocations whether it holds 8 entries
// or 200 — the entries are views of the extent, decoded into one slice.
func TestDecodeAllocsIndependentOfEntries(t *testing.T) {
	cfg := Config{NodeBytes: 64 << 10, MaxFanout: 8, MaxKeyBytes: 32, MaxValueBytes: 128, Layout: Slotted}
	allocs := func(entries int) float64 {
		leaf := newLeafNode()
		for i := 0; i < entries; i++ {
			leaf.entries = append(leaf.entries, kv.Entry{Key: key(i), Value: value(i)})
		}
		leaf.leafBytes = entryBytes(leaf.entries)
		leaf.recut(cfg.MaxFanout)
		ext := leaf.encode(cfg)
		return testing.AllocsPerRun(50, func() {
			n, err := decodeFull(cfg, ext)
			if err == nil {
				err = n.materialize(cfg)
			}
			if err != nil || len(n.entries) != entries {
				t.Fatalf("decode of %d entries: %v", entries, err)
			}
		})
	}
	small, large := allocs(8), allocs(200)
	if small != large || large > 4 {
		t.Fatalf("slotted leaf decode: %v allocations at 8 entries, %v at 200; want the same, at most 4", small, large)
	}
}
