package btree

import "iomodels/internal/engine"

// Tree implements the engine's tree interface: the dictionary, its read
// paths lent to per-client sessions, and Flush.
var _ engine.Tree = (*Tree)(nil)

// Stats implements engine.Dictionary.
func (t *Tree) Stats() engine.Stats {
	return engine.Stats{Items: t.items, LogicalBytes: t.LogicalBytesInserted, IO: t.eng.Counters(), Pager: t.pager().Stats()}
}

// Session creates a client-bound view of the tree: reads run in c's own
// virtual timeline (see engine.Session).
func (t *Tree) Session(c *engine.Client) *engine.Session { return engine.NewSession(t, c) }

// ScanAs is Scan charged to c.
func (t *Tree) ScanAs(c *engine.Client, lo, hi []byte, fn func(key, value []byte) bool) {
	t.scan(c, t.root, lo, hi, fn)
}
