package cobtree

import "iomodels/internal/engine"

// Tree implements the engine's tree interface: the dictionary, its read
// paths lent to per-client sessions, and Flush.
var _ engine.Tree = (*Tree)(nil)

// Stats implements engine.Dictionary.
func (t *Tree) Stats() engine.Stats {
	return engine.Stats{Items: t.live, LogicalBytes: t.LogicalBytesInserted, IO: t.eng.Counters(), Pager: t.eng.Pager().Stats()}
}

// Session creates a client-bound view of the tree: reads run in c's own
// virtual timeline (see engine.Session).
func (t *Tree) Session(c *engine.Client) *engine.Session { return engine.NewSession(t, c) }
