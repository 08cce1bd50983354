package lsm

import "iomodels/internal/engine"

// Tree implements the engine's tree interface: the dictionary, its read
// paths lent to per-client sessions, and Flush.
var _ engine.Tree = (*Tree)(nil)

// Stats implements engine.Dictionary. Items is an upper bound (see Items).
// The pager component is empty: SSTable IO bypasses the buffer pool, as in
// LevelDB.
func (t *Tree) Stats() engine.Stats {
	return engine.Stats{Items: t.items, LogicalBytes: t.LogicalBytesInserted, IO: t.eng.Counters(), Pager: t.eng.Pager().Stats()}
}

// Session creates a client-bound view of the tree: reads run in c's own
// virtual timeline (see engine.Session).
func (t *Tree) Session(c *engine.Client) *engine.Session { return engine.NewSession(t, c) }
