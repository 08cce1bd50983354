package btree

import (
	"testing"

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
