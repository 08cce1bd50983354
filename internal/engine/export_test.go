package engine

import (
	"iomodels/internal/kv"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// SetTableLoaded installs the hook Recover calls with the table record it
// decodes; nil restores the no-op.
func SetTableLoaded(fn func(record []byte)) {
	if fn == nil {
		fn = func([]byte) {}
	}
	tableLoaded = fn
}

// SuperRegionBytes is the size of the two superblock slots at the start of a
// durable image.
const SuperRegionBytes = 2 * superBytes

// SealedExtents reads the newest valid superblock on store and returns, as
// {offset, size} pairs, every extent the checkpoint it names references: the
// slot itself, its table record, and the extent of each page in its
// translation table. It returns nil when no slot is valid.
func SealedExtents(store storage.ByteStore) [][2]int64 {
	e := FromStore(Config{CacheBytes: 1}, store, sim.New())
	slot, epoch, rec, payload := -1, uint64(0), extent{}, []byte(nil)
	for s := 0; s < 2; s++ {
		if ep, r, pl, ok := e.readSuper(s); ok && ep > epoch {
			slot, epoch, rec, payload = s, ep, r, pl
		}
	}
	if slot < 0 {
		return nil
	}
	out := [][2]int64{{int64(slot) * superBytes, superBytes}, {rec.off, rec.size}}
	d := &kv.Dec{Buf: payload}
	d.U64() // lastLSN
	d.U64() // allocator high water
	d.U64() // capacity
	decodeFree(d)
	decodeFree(d)
	for n := d.U8(); n > 0; n-- {
		d.Bytes() // name
		d.Bytes() // manifest
	}
	for n := d.U32(); n > 0 && d.Err == nil; n-- {
		d.U64() // name
		phys, size := int64(d.U64()), int64(d.U64())
		out = append(out, [2]int64{phys, size})
	}
	return out
}
