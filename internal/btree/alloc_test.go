package btree

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"iomodels/internal/kv"
)

// TestGetAllocatesNothing: a Get on a resident tree allocates nothing,
// through the owner and through a Detached session. Every level pins and
// unpins its node, so a pager that allocated per Unpin (a list element)
// would show here once per level.
func TestGetAllocatesNothing(t *testing.T) {
	tree := newTestTree(t, 1024, 64<<20)
	const n = 5000
	keys := make([][]byte, 0, n/7+1)
	for i := 0; i < n; i++ {
		tree.Put(key(i), value(i))
		if i%7 == 0 {
			keys = append(keys, key(i))
		}
	}
	if tree.Height() < 3 {
		t.Fatalf("height %d: want a tree of three levels or more", tree.Height())
	}
	s := tree.Session(tree.Engine().Detached())
	for name, get := range map[string]func([]byte) ([]byte, bool){"owner": tree.Get, "detached": s.Get} {
		if a := testing.AllocsPerRun(20, func() {
			for _, k := range keys {
				if _, ok := get(k); !ok {
					t.Fatalf("%s: lost %q", name, k)
				}
			}
		}); a != 0 {
			t.Errorf("%s: %d resident Gets allocate %v times, want 0", name, len(keys), a)
		}
	}
}

// TestMaxEntryBytesAllocatesNothing: maxEntryBytes, which leafFull asks on
// every Put, is kv.EncodedEntrySize of a max-size key and value, and builds
// neither to say so.
func TestMaxEntryBytesAllocatesNothing(t *testing.T) {
	cfg := Config{NodeBytes: 4096, MaxKeyBytes: 64, MaxValueBytes: 200}
	want := kv.EncodedEntrySize(make([]byte, cfg.MaxKeyBytes), make([]byte, cfg.MaxValueBytes))
	var got int
	if a := testing.AllocsPerRun(100, func() { got = cfg.maxEntryBytes() }); a != 0 || got != want {
		t.Errorf("maxEntryBytes = %d in %v allocations, want %d in 0", got, a, want)
	}
}

// TestRepackAllocations: on a private leaf no reader has viewed, an insert
// that compacts the page allocates nothing and a split allocates one page,
// the right half's (with its node, head column and pivot); after a Get has
// viewed the leaf, the same ops build a fresh page for every half they keep.
// The race detector's runtime allocates more often, so under it only the
// bytes are held to whole pages.
func TestRepackAllocations(t *testing.T) {
	const nb = 4096
	tree := newTestTree(t, nb, 1<<20)
	n, pin := tree.get(tree.root)
	tree.unpin(pin)
	// Fill the root leaf until it is full. The first replace of key 0 splits
	// it, and n keeps the left half, key 0's; further replaces use up n's gap
	// until a new entry needs a compaction.
	id := 0
	for ; !tree.leafFull(n); id++ {
		tree.Put(key(id), value(id))
	}
	k, v := key(id), value(id)
	for n.free() >= entryHeadBytes+len(k)+len(v)+slotBytes {
		tree.Put(key(0), value(0))
	}
	page, tpl, heads := n.page, bytes.Clone(n.page), slices.Clone(n.heads)
	count, low, size := n.count, n.low, n.size
	headsBuf := make([]uint64, 0, count+16)
	restore := func(viewed bool) {
		copy(page, tpl)
		n.page, n.count, n.low, n.size, n.shared = page, count, low, size, false
		n.heads = append(headsBuf[:0], heads...)
		n.viewed.Store(false)
		if viewed {
			if _, ok := tree.Get(key(1)); !ok {
				t.Fatal("lost key 1")
			}
		}
	}
	for _, c := range []struct {
		name   string
		viewed bool
		op     func()
		allocs float64
		pages  uint64 // bytes allocated, in whole pages
	}{
		{"compaction", false, func() { n.insertEntry(k, v, tree.scratch) }, 0, 0},
		{"split", false, func() { tree.splitNode(n) }, 4, 1},
		{"compaction after a Get", true, func() { n.insertEntry(k, v, tree.scratch) }, 3, 1},
		{"split after a Get", true, func() { tree.splitNode(n) }, 7, 2},
	} {
		run := func() { restore(c.viewed); c.op() }
		allocs := testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 20
		if allocs != c.allocs && !raceDetector || bytes/nb != c.pages {
			t.Errorf("%s: %v allocations of %d bytes, want %v of %d to %d", c.name, allocs, bytes, c.allocs, c.pages*nb, (c.pages+1)*nb-1)
		}
		if inPlace := pageStart(n) == uintptr(unsafe.Pointer(&page[0])); inPlace == c.viewed {
			t.Errorf("%s: page repacked in place %v, want %v", c.name, inPlace, !c.viewed)
		}
	}
}
