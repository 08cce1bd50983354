package errcontract_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/errcontract"
)

// TestWalErr: every discard shape of a durable-write error, and its hatch.
func TestWalErr(t *testing.T) {
	atest.Run(t, "testdata", errcontract.Analyzer, "internal/server")
}

// TestStatusCheck: every discard shape of a wire-client error, and text
// dispatch on err.Error().
func TestStatusCheck(t *testing.T) {
	atest.Run(t, "testdata", errcontract.Analyzer, "statusdata")
}

// TestUnwatched: errors of a type that is not the wire client may be
// discarded, but err.Error() text dispatch is still flagged — it is wrong
// regardless of where the error came from.
func TestUnwatched(t *testing.T) {
	atest.Run(t, "testdata", errcontract.Analyzer, "statusnotypes")
}
