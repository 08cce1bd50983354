package lockorder_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	atest.Run(t, "testdata", lockorder.Analyzer, "lockorderdata")
}

// TestDepClean: the dependency package is well-ordered on its own.
func TestDepClean(t *testing.T) {
	atest.Run(t, "testdata", lockorder.Analyzer, "lockorderdep")
}
