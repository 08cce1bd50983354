package statuscheck_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/statuscheck"
)

func TestStatusCheck(t *testing.T) {
	atest.Run(t, "testdata", statuscheck.Analyzer, "statusdata")
}

// TestUnwatched: errors of a type that is not the wire client may be
// discarded, but err.Error() text dispatch is still flagged — it is wrong
// regardless of where the error came from.
func TestUnwatched(t *testing.T) {
	atest.Run(t, "testdata", statuscheck.Analyzer, "statusnotypes")
}
