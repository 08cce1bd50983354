package walerr_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/walerr"
)

func TestWalErr(t *testing.T) {
	atest.Run(t, "testdata", walerr.Analyzer, "internal/server")
}
