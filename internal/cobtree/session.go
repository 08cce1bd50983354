package cobtree

import "iomodels/internal/engine"

// Tree implements the engine's dictionary interface and lends its read
// paths to per-client sessions.
var _ engine.SessionReader = (*Tree)(nil)

// Stats implements engine.Dictionary.
func (t *Tree) Stats() engine.Stats {
	return engine.Stats{Items: t.live, IO: t.eng.Counters(), Pager: t.eng.Pager().Stats()}
}

// Session creates a client-bound view of the tree: reads run in c's own
// virtual timeline (see engine.Session).
func (t *Tree) Session(c *engine.Client) *engine.Session { return engine.NewSession(t, c) }
