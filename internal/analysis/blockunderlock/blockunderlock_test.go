package blockunderlock_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/blockunderlock"
)

func TestBlockUnderLock(t *testing.T) {
	atest.Run(t, "testdata", blockunderlock.Analyzer, "blockdata")
}

// TestFixPackageDiagnostics: a send immediately followed by the Unlock is
// still reported, in a package of its own so no other case masks it.
func TestFixPackageDiagnostics(t *testing.T) {
	atest.Run(t, "testdata", blockunderlock.Analyzer, "blockfixdata")
}
