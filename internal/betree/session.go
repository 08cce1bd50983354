package betree

import "iomodels/internal/engine"

// Tree implements the engine's dictionary interface and lends its read
// paths to per-client sessions.
var _ engine.SessionReader = (*Tree)(nil)

// Stats implements engine.Dictionary. Items is approximate until Settle
// (buffered updates are not counted).
func (t *Tree) Stats() engine.Stats {
	return engine.Stats{Items: t.items, IO: t.eng.Counters(), Pager: t.pager().Stats()}
}

// Session creates a client-bound view of the tree: reads run in c's own
// virtual timeline (see engine.Session).
func (t *Tree) Session(c *engine.Client) *engine.Session { return engine.NewSession(t, c) }

// ScanAs is Scan charged to c.
func (t *Tree) ScanAs(c *engine.Client, lo, hi []byte, fn func(key, value []byte) bool) {
	t.scanNode(c, t.root, t.rootN, lo, hi, nil, fn)
}
