package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

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
// explicit one — and compares both journal regions, and the whole image up
// to the allocator's high-water mark, with recorded hashes. The sealed
// journal, the WAL and every tree page must be the same bytes. The hashes
// were re-recorded once, when a Slotted leaf's meta region gained its entry
// byte count: with that field left out, the image hashes to what it did at
// the commit before the frame was encoded in place and nodes into their
// extent once, and the counts (22 checkpoints, 951,974 journal bytes, high
// water 9,494,528) did not move.
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
	if st.Err != nil || st.Checkpoints < 20 {
		t.Fatalf("stats = %+v, want >= 20 checkpoints and no error", st)
	}
	for _, c := range []struct {
		what      string
		off, size int64
		want      string
	}{
		{"journal slot 0", 0, dcfg.JournalBytes, "95cc50a74e6a6579293f14498affa1dfafe3d9d54b309201b6b3bc9d408d70ff"},
		{"journal slot 1", dcfg.JournalBytes, dcfg.JournalBytes, "8c7f796136d6a8cca561dce2267fd3011091373dcad1a76f5251fdaa15acd79f"},
		{"image to high water", 0, e.HighWater(), "288e5950543abafbdcab3338b01fd66d34524b37fc77bede72c3e7eeae220a99"},
	} {
		if got := imageHash(fs, c.off, c.size); got != c.want {
			t.Errorf("%s (%d bytes at %d): sha256 %s, want %s", c.what, c.size, c.off, got, c.want)
		}
	}
	t.Logf("checkpoints %d, journal bytes %d, high water %d", st.Checkpoints, st.JournalBytes, e.HighWater())
}

// TestCheckpointAllocatesTwiceTheDirtySet: sealing D dirty bytes costs the
// captured extents (D, one buffer per page) and the journal frame (D plus
// headers, one exactly-sized buffer) — not an encoder that doubles its way
// up to D and a second full copy behind a header.
func TestCheckpointAllocatesTwiceTheDirtySet(t *testing.T) {
	fs := storage.NewFaultStore(flatDev{testCapacity})
	e := engine.FromStore(engine.Config{CacheBytes: 16 << 20}, fs, sim.New())
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
	for i := 0; i < 40000; i++ {
		d.Put([]byte(fmt.Sprintf("key-%06d", i)), val(i))
	}
	dirty := e.Pager().DirtyBytes()
	if dirty < 2<<20 {
		t.Fatalf("dirty set is only %d bytes; the test needs a few MiB", dirty)
	}
	// The image's own growth (blocks the seal touches for the first time, and
	// the extents the install hands over) is not the checkpoint's garbage:
	// subtract it.
	var before, after runtime.MemStats
	resident := fs.Resident()
	runtime.ReadMemStats(&before)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc-before.TotalAlloc) - (fs.Resident() - resident)
	t.Logf("checkpoint of %d dirty bytes allocated %d (%.2fx)", dirty, alloc, float64(alloc)/float64(dirty))
	if float64(alloc) > 2.2*float64(dirty) {
		t.Errorf("checkpoint of %d dirty bytes allocated %d bytes (%.2fx), want <= 2.2x",
			dirty, alloc, float64(alloc)/float64(dirty))
	}
	if e.Pager().DirtyBytes() != 0 {
		t.Errorf("dirty bytes after checkpoint = %d", e.Pager().DirtyBytes())
	}
}
