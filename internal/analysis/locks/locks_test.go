package locks_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/locks"
)

// TestLockOrder: rank annotations, inversions, self-deadlock, transitive
// and cross-package acquisition, and one call reported by both checks.
func TestLockOrder(t *testing.T) {
	atest.Run(t, "testdata", locks.Analyzer, "lockorderdata")
}

// TestDepClean: the dependency package is well-ordered on its own.
func TestDepClean(t *testing.T) {
	atest.Run(t, "testdata", locks.Analyzer, "lockorderdep")
}

func TestBlockUnderLock(t *testing.T) {
	atest.Run(t, "testdata", locks.Analyzer, "blockdata")
}

// TestFixPackageDiagnostics: a send immediately followed by the Unlock is
// still reported, in a package of its own so no other case masks it.
func TestFixPackageDiagnostics(t *testing.T) {
	atest.Run(t, "testdata", locks.Analyzer, "blockfixdata")
}
