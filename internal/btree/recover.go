// Checkpoint/Open: the B-tree's half of engine crash recovery. The tree
// keeps no volatile state outside the engine's pager — every dirty node is
// a dirty page the engine checkpoint captures — so its manifest is just the
// header fields needed to find the root again.

package btree

import (
	"fmt"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

const manifestMagic = 0x42545243 // "BTRC"

// Checkpoint implements engine.RecoverableDict: it returns a manifest from
// which Open reconstructs the tree against a recovered engine.
func (t *Tree) Checkpoint() []byte {
	var e kv.Enc
	e.U32(manifestMagic)
	e.U64(uint64(t.root))
	e.U64(uint64(t.height))
	e.U64(uint64(t.items))
	e.U64(uint64(t.nodes))
	e.U64(uint64(t.LogicalBytesInserted))
	return e.Buf
}

// Open reconstructs a tree from a Checkpoint manifest on a recovered
// engine. cfg must match the configuration the tree was created with (node
// bytes determine every IO size and extent layout).
func Open(cfg Config, eng *engine.Engine, manifest []byte) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &kv.Dec{Buf: manifest}
	if magic := d.U32(); magic != manifestMagic {
		return nil, fmt.Errorf("btree: bad manifest magic %#x", magic)
	}
	t := &Tree{cfg: cfg, eng: eng, owner: eng.Owner(), scratch: make([]byte, cfg.NodeBytes)}
	t.root = int64(d.U64())
	t.height = int(d.U64())
	t.items = int(d.U64())
	t.nodes = int(d.U64())
	t.LogicalBytesInserted = int64(d.U64())
	if d.Err != nil {
		return nil, fmt.Errorf("btree: corrupt manifest: %w", d.Err)
	}
	return t, nil
}

var _ engine.RecoverableDict = (*Tree)(nil)
