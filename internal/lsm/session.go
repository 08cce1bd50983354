package lsm

import "iomodels/internal/engine"

// Tree implements the engine's dictionary interface and lends its read
// paths to per-client sessions.
var _ engine.SessionReader = (*Tree)(nil)

// Stats implements engine.Dictionary. Items is an upper bound (see Items).
// The pager component is empty: SSTable IO bypasses the buffer pool, as in
// LevelDB.
func (t *Tree) Stats() engine.Stats {
	return engine.Stats{Items: t.items, IO: t.eng.Counters(), Pager: t.eng.Pager().Stats()}
}

// Session creates a client-bound view of the tree: reads run in c's own
// virtual timeline (see engine.Session).
func (t *Tree) Session(c *engine.Client) *engine.Session { return engine.NewSession(t, c) }
