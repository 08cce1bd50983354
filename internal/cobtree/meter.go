// Block metering for the cache-oblivious B-tree, built on the engine's
// shared pager: an LRU cache of fixed-size blocks that charges device time
// on misses and dirty write-backs.
//
// The cache-oblivious model assumes an ideal cache of M bytes with lines of
// B bytes that the algorithm does not know; LRU is the standard
// constant-factor substitute (Frigo et al.). The tree's in-memory arrays
// are authoritative — the pager meters which block-sized regions of their
// on-disk image an operation touches, which is exactly what the
// cache-oblivious analyses count. (DESIGN.md records this metering
// substitution.) The cache budget M is the engine's CacheBytes; keep it at
// least a few blocks or every touch thrashes.

package cobtree

import (
	"iomodels/internal/engine"
	"iomodels/internal/storage"
)

// blockToken is the resident object for a metered block; the bytes live in
// the tree's arrays, so there is nothing to hold.
type blockToken struct{}

// blockLoader adapts the tree to engine.Loader: a miss charges a block
// read in the client's own timeline, a dirty write-back charges a block
// write. No bytes move.
type blockLoader Tree

func (l *blockLoader) Load(c *engine.Client, id engine.PageID) (interface{}, int64) {
	b := int64(l.cfg.BlockBytes)
	c.Meter(storage.Read, int64(id), b)
	return blockToken{}, b
}

func (l *blockLoader) Store(c *engine.Client, id engine.PageID, _ interface{}) {
	b := int64(l.cfg.BlockBytes)
	c.Meter(storage.Write, int64(id), b)
}

// touch charges client c for accessing [off, off+size) of the on-disk
// image; write marks the touched blocks dirty (their eviction will charge
// a write).
func (t *Tree) touch(c *engine.Client, off, size int64, write bool) {
	if size <= 0 {
		return
	}
	bb := int64(t.cfg.BlockBytes)
	p := t.eng.Pager()
	first := off / bb
	last := (off + size - 1) / bb
	for b := first; b <= last; b++ {
		_, pin := p.Pin(c, (*blockLoader)(t), engine.PageID(b*bb))
		if write {
			pin.Release(c, bb)
		} else {
			pin.Unpin(c)
		}
	}
}

// dropImage discards the resident blocks of the first extent bytes of the
// address space without write-back (used when the image is rebuilt
// wholesale and old contents are garbage).
func (t *Tree) dropImage(extent int64) {
	if extent <= 0 {
		return
	}
	bb := int64(t.cfg.BlockBytes)
	p := t.eng.Pager()
	last := (extent - 1) / bb
	for b := int64(0); b <= last; b++ {
		p.Drop(t.owner, engine.PageID(b*bb))
	}
}
