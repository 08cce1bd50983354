package virtualtime_test

import (
	"testing"

	"iomodels/internal/analysis/atest"
	"iomodels/internal/analysis/virtualtime"
)

func TestVirtualTime(t *testing.T) {
	if err := virtualtime.Analyzer.Flags.Set("scope", "vtimedata"); err != nil {
		t.Fatal(err)
	}
	defer virtualtime.Analyzer.Flags.Set("scope", virtualtime.DefaultScope)
	atest.Run(t, "../testdata", virtualtime.Analyzer, "vtimedata")
}

// TestDefaultScopeCoversMQSSD: the multi-queue device package is in the
// DEFAULT scope — a wall-clock read in a package whose import path ends in
// internal/mqssd is flagged with no scope configuration at all.
func TestDefaultScopeCoversMQSSD(t *testing.T) {
	if err := virtualtime.Analyzer.Flags.Set("scope", virtualtime.DefaultScope); err != nil {
		t.Fatal(err)
	}
	atest.Run(t, "../testdata", virtualtime.Analyzer, "internal/mqssd")
}

// TestDefaultScopeCoversReadScheduler: of the server package only
// scheduler.go is in the default scope — a timer armed there is flagged, the
// wall-clock latency metrics beside it are not.
func TestDefaultScopeCoversReadScheduler(t *testing.T) {
	if err := virtualtime.Analyzer.Flags.Set("scope", virtualtime.DefaultScope); err != nil {
		t.Fatal(err)
	}
	atest.Run(t, "../testdata", virtualtime.Analyzer, "internal/server")
}

// TestOutOfScope: the same package is silent when not scoped — the server's
// real-time code is simply never in the scope list.
func TestOutOfScope(t *testing.T) {
	if err := virtualtime.Analyzer.Flags.Set("scope", "internal/sim"); err != nil {
		t.Fatal(err)
	}
	defer virtualtime.Analyzer.Flags.Set("scope", virtualtime.DefaultScope)
	atest.RunExpectClean(t, "../testdata", virtualtime.Analyzer, "vtimedata")
}
