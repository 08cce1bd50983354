// Checkpoint/Open: the Bε-tree's half of engine crash recovery. Buffered
// messages are part of node state, so they live in the pager like
// everything else and the engine checkpoint captures them; the manifest is
// the tree header plus the message sequence counter (replay must not hand
// out seqs that buffered messages already carry).

package betree

import (
	"fmt"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

const manifestMagic = 0x42455243 // "BERC"

// Checkpoint implements engine.RecoverableDict: it returns a manifest from
// which Open reconstructs the tree against a recovered engine.
func (t *Tree) Checkpoint() []byte {
	var e kv.Enc
	e.U32(manifestMagic)
	e.U64(uint64(t.root))
	e.U64(t.seq)
	e.U64(uint64(t.items))
	e.U64(uint64(t.nodes))
	e.U64(uint64(t.LogicalBytesInserted))
	return e.Buf
}

// Open reconstructs a tree from a Checkpoint manifest on a recovered
// engine. cfg must match the configuration the tree was created with. The
// root is re-read and re-pinned (it stays pinned for the tree's lifetime).
func Open(cfg Config, eng *engine.Engine, manifest []byte) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Layout == Packed && cfg.QueryMode != WholeNode {
		return nil, fmt.Errorf("betree: packed layout supports only whole-node queries")
	}
	d := &kv.Dec{Buf: manifest}
	if magic := d.U32(); magic != manifestMagic {
		return nil, fmt.Errorf("betree: bad manifest magic %#x", magic)
	}
	t := &Tree{cfg: cfg, eng: eng, owner: eng.Owner()}
	t.root = int64(d.U64())
	t.seq = d.U64()
	t.items = int(d.U64())
	t.nodes = int(d.U64())
	t.LogicalBytesInserted = int64(d.U64())
	if d.Err != nil {
		return nil, fmt.Errorf("betree: corrupt manifest: %w", d.Err)
	}
	t.rootN, t.rootPin = t.ensureFull(t.root) // pins the root, as New does
	return t, nil
}

var _ engine.RecoverableDict = (*Tree)(nil)
