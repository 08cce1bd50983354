package betree

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"iomodels/internal/kv"
)

// TestGetAllocatesNothing: a Get on a resident tree with buffered upserts
// and puts allocates nothing, through the owner and through a Detached
// session, in every layout and query mode. The messages a Get applies are
// views of the buffers they sit in, held in a stack array, and the pager's
// LRU ring is intrusive. (A Get that applies an upsert allocates its result,
// so the keys read here share buffers with upserts but are not counters.)
func TestGetAllocatesNothing(t *testing.T) {
	for name, cfg := range configs(16<<10, 0) {
		t.Run(name, func(t *testing.T) {
			tree := newTestTree(t, cfg, 64<<20)
			const n = 3000
			for i := 0; i < n; i++ {
				tree.Put(key(i), value(i))
			}
			tree.Settle()
			var keys [][]byte
			for i := 0; i < n; i += 5 {
				tree.Upsert(key(i), 1)                  // a counter in the buffers
				tree.Put(key(i+1), value(i+2))          // a buffered put, read below
				keys = append(keys, key(i+1), key(i+3)) // and a settled key beside it
			}
			if tree.Height() < 3 {
				t.Fatalf("height %d: want a tree of three levels or more", tree.Height())
			}
			s := tree.Session(tree.Engine().Detached())
			for who, get := range map[string]func([]byte) ([]byte, bool){"owner": tree.Get, "detached": s.Get} {
				if a := testing.AllocsPerRun(20, func() {
					for _, k := range keys {
						if v, ok := get(k); !ok || len(v) == 0 {
							t.Fatalf("%s: Get(%q) = %q, %v", who, k, v, ok)
						}
					}
				}); a != 0 {
					t.Errorf("%s: %d resident Gets allocate %v times, want 0", who, len(keys), a)
				}
			}
			if v, ok := tree.Get(key(1)); !ok || !bytes.Equal(v, value(2)) {
				t.Fatalf("buffered put: Get = %q, %v", v, ok)
			}
		})
	}
}

// TestDecodeSlotBoundsCorruptCount: a slot whose count claims 1<<30 entries
// or messages fails to decode, and sizes its slice by what the slot's bytes
// can hold, not by the count.
func TestDecodeSlotBoundsCorruptCount(t *testing.T) {
	const stride = 4096
	for _, leaf := range []bool{true, false} {
		e := kv.Enc{Buf: make([]byte, 0, stride)}
		perItem, itemBytes := kv.EncodedEntrySize(nil, nil), int(unsafe.Sizeof(kv.Entry{}))
		if !leaf {
			encodeRoute(&e, route{})
			perItem, itemBytes = kv.EncodedMessageSize(nil, nil), int(unsafe.Sizeof(kv.Message{}))
		}
		e.U32(1 << 30)
		buf := e.Buf[:stride] // zero past the count: empty entries, invalid messages
		// TotalAlloc is process-wide: a finalizer or another goroutine that
		// allocates inside the window adds to one trial and never subtracts.
		// The decode allocates the same every time, so the least of a few
		// trials is what it allocates.
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := decodeSlot(leaf, buf, nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("leaf=%v: a count of 1<<30 in %d bytes decoded", leaf, stride)
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		bound := stride/perItem*itemBytes + 4096
		if got > uint64(bound) {
			t.Fatalf("leaf=%v: decoding a corrupt count allocated %d bytes, want at most %d", leaf, got, bound)
		}
	}
}

// TestSizeHelpersAllocateNothing: maxMsgBytes and maxEntryBytes, which
// leafCapBytes asks on every leaf flush, are kv.EncodedMessageSize and
// kv.EncodedEntrySize of a max-size key and value, and build neither to say
// so.
func TestSizeHelpersAllocateNothing(t *testing.T) {
	cfg := Config{NodeBytes: 64 << 10, MaxFanout: 8, MaxKeyBytes: 64, MaxValueBytes: 200}
	k, v := make([]byte, cfg.MaxKeyBytes), make([]byte, cfg.MaxValueBytes)
	for _, c := range []struct {
		name string
		size func() int
		want int
	}{
		{"maxMsgBytes", cfg.maxMsgBytes, kv.EncodedMessageSize(k, v)},
		{"maxEntryBytes", cfg.maxEntryBytes, kv.EncodedEntrySize(k, v)},
	} {
		var got int
		if a := testing.AllocsPerRun(100, func() { got = c.size() }); a != 0 || got != c.want {
			t.Errorf("%s = %d in %v allocations, want %d in 0", c.name, got, a, c.want)
		}
	}
}
