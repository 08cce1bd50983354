package nopanic_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/nopanic"
)

func TestNoPanic(t *testing.T) {
	atest.Run(t, "testdata", nopanic.Analyzer, "internal/wal", "internal/engine")
}

// TestOutOfScope: a package off the durability path is never diagnosed,
// even though it panics — including one whose import path merely extends
// internal/wal's.
func TestOutOfScope(t *testing.T) {
	atest.Run(t, "testdata", nopanic.Analyzer, "internal/walx")
}
