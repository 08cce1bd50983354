package enginebypass_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/enginebypass"
)

// TestBypass: a tree-layer package calling the IO layer directly is
// diagnosed on byte IO and raw Access, through both concrete and interface
// receivers; the metering probe stays sanctioned.
func TestBypass(t *testing.T) {
	atest.Run(t, "testdata", enginebypass.Analyzer, "internal/btree")
}

// TestAllowList: the engine-layer package makes the same calls silently.
func TestAllowList(t *testing.T) {
	atest.Run(t, "testdata", enginebypass.Analyzer, "internal/engine")
}
