package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSuiteRoster pins the registered analyzer set: every invariant
// analyzer the repo keeps must be wired in, in the documented order, and no
// stock vet pass is run a second time (ci/check.sh runs go vet beside
// iolint). A new analyzer that is written but not registered here is dead
// code.
func TestSuiteRoster(t *testing.T) {
	want := []string{
		"nopanic",
		"enginebypass",
		"errcontract",
		"locks",
	}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestRepoClean runs the full suite over the repository the way CI does
// (go vet -vettool) and requires a zero exit: the codebase must be clean
// under its own lint gate, with deliberate exceptions hatch-annotated.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint run in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "iolint")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building iolint: %v", err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "iomodels/...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("iolint over ./... not clean: %v\n%s", err, out)
	}
}
