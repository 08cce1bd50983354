package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// imageHash hashes image bytes [off, off+size) of fs's medium.
func imageHash(fs *storage.FaultStore, off, size int64) string {
	buf, _ := fs.Inner().Read(0, off, int(size))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestCheckpointFrameBytesPinned runs a fixed script over two durable trees —
// inserts, overwrites, deletes that merge nodes (so the allocator snapshot
// carries free lists), upserts, dozens of automatic checkpoints and a final
// explicit one — and compares both superblock slots, and the whole image up
// to the allocator's high-water mark, with recorded hashes. The seal, the WAL
// and every tree page must be the same bytes.
//
// The seal's format (DESIGN.md §5): superblock slot s is the 4 KiB at s ×
// 4 KiB and holds magic "CKPS", the epoch, the table record's offset and
// extent size, the record's length and CRC-32, and a CRC-32 of those 40
// bytes. The record holds lastLSN; the allocator's high water, capacity and
// free lists; the spare extents; each dictionary's name and manifest; and the
// translation table as (name, extent, size) triples sorted by name. The
// script takes 22 checkpoints, whose seals write 10,858 bytes, and leaves
// the high water at 1,175,552.
func TestCheckpointFrameBytesPinned(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engCfg(), fs, sim.New())
	dcfg := smallDur()
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	bt, err := btree.New(btreeCfg(), e)
	if err != nil {
		t.Fatal(err)
	}
	be, err := betree.New(betree.Config{
		NodeBytes: 16 << 10, MaxFanout: 8, MaxKeyBytes: 64, MaxValueBytes: 64,
	}.Optimized(), e)
	if err != nil {
		t.Fatal(err)
	}
	dbt, err := e.Durable("bt", bt)
	if err != nil {
		t.Fatal(err)
	}
	dbe, err := e.Durable("be", be)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 4000; i++ {
		dbt.Put(key(rng.Intn(900)), val(i))
		dbe.Upsert([]byte(fmt.Sprintf("ctr-%03d", rng.Intn(200))), int64(rng.Intn(9)-4))
	}
	for i := 0; i < 900; i++ {
		if i%8 != 0 {
			dbt.Delete(key(i))
		}
	}
	for i := 0; i < 300; i++ {
		dbe.Put(key(i), val(i))
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.DurabilityStats()
	if st.Err != nil || st.Checkpoints != 22 {
		t.Fatalf("stats = %+v, want 22 checkpoints and no error", st)
	}
	for _, c := range []struct {
		what      string
		off, size int64
		want      string
	}{
		{"superblock slot 0", 0, 4 << 10, "dd976dafdf6d1a0b19c98732fa0f44ce9076fa9281e2ffa1de410430100cacea"},
		{"superblock slot 1", 4 << 10, 4 << 10, "b5d7e8f04ecdb71ff1387bfd0ce925230b55e73cb971dc2d30c7d1aabb279a19"},
		{"image to high water", 0, e.HighWater(), "43cd00381c1daf4be9dc603bad827a54aa0b1265754e120aba59621cadd13ce1"},
	} {
		if got := imageHash(fs, c.off, c.size); got != c.want {
			t.Errorf("%s (%d bytes at %d): sha256 %s, want %s", c.what, c.size, c.off, got, c.want)
		}
	}
	t.Logf("checkpoints %d, seal bytes %d, high water %d", st.Checkpoints, st.JournalBytes, e.HighWater())
}

// handoverLog keeps the last buffer handed over to the store at each offset.
type handoverLog struct {
	storage.ByteStore
	given map[int64][]byte
}

func (h *handoverLog) Handover(now sim.Time, p []byte, off int64) sim.Time {
	h.given[off] = p
	return h.ByteStore.Handover(now, p, off)
}

// TestCheckpointAllocatesTheDirtySetOnce: a checkpoint of D dirty B-tree
// bytes hands each dirty leaf's own page to the store, where it is the page's
// run from then on, and encodes no leaf: everything it allocates — internal
// node encodings, the table record, the allocator snapshot, the flush's
// bookkeeping — comes to at most a tenth of D. Three rounds cover the three
// places a page is written: at its name (the first checkpoint of a fresh
// tree), at the high-water mark, and in an extent a page moved out of.
func TestCheckpointAllocatesTheDirtySetOnce(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	// The store's block table grows as the image first reaches an address;
	// that reallocation is the store's, not the checkpoint's. One byte at the
	// device's end grows it once, before anything is measured.
	fs.WriteAt(0, []byte{0}, testCapacity-1)
	log := &handoverLog{ByteStore: fs, given: map[int64][]byte{}}
	e := engine.FromStore(engine.Config{CacheBytes: 16 << 20}, log, sim.New())
	dcfg := engine.DurabilityConfig{LogBytes: 32 << 20, JournalBytes: 24 << 20, CheckpointEveryBytes: -1}
	if err := e.EnableDurability(dcfg); err != nil {
		t.Fatal(err)
	}
	bt, err := btree.New(btreeCfg(), e)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Durable("bt", bt)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 40000; i++ {
			d.Put([]byte(fmt.Sprintf("key-%06d", i)), val(i+round))
		}
		dirty := e.Pager().DirtyBytes()
		if dirty < 2<<20 {
			t.Fatalf("dirty set is only %d bytes; the test needs a few MiB", dirty)
		}
		clear(log.given)
		written := e.DurabilityStats().RedoBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		written = e.DurabilityStats().RedoBytes - written
		allocated := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("round %d: checkpoint of %d dirty bytes wrote %d page bytes and allocated %d (%.3fx)",
			round, dirty, written, allocated, float64(allocated)/float64(dirty))
		if float64(allocated) > 0.1*float64(dirty) {
			t.Errorf("round %d: checkpoint of %d dirty bytes allocated %d bytes in all (%.3fx), want <= 0.1x",
				round, dirty, allocated, float64(allocated)/float64(dirty))
		}
		var handed int64
		for off, p := range log.given {
			handed += int64(len(p))
			if v, _ := fs.Inner().Read(0, off, len(p)); unsafe.SliceData(v) != unsafe.SliceData(p) {
				t.Fatalf("round %d: the page handed over at %d is not the store's run", round, off)
			}
		}
		if handed != written {
			t.Errorf("round %d: %d page bytes handed over, %d written", round, handed, written)
		}
		if e.Pager().DirtyBytes() != 0 {
			t.Errorf("dirty bytes after checkpoint = %d", e.Pager().DirtyBytes())
		}
	}
}
