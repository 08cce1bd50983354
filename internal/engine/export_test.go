package engine

// SetJournalLoaded installs the hook Recover calls with the journal payload
// it decodes; nil restores the no-op.
func SetJournalLoaded(fn func(payload []byte)) {
	if fn == nil {
		fn = func([]byte) {}
	}
	journalLoaded = fn
}
