package experiments

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRegistryMarkers holds EXPERIMENTS.md and DESIGN.md to the registry:
// every deterministic row has exactly one generated block and every block
// names one (Blocks), and every ID of DESIGN.md §4's index is rendered by
// exactly one row, or by cmd/iotrace (E21, a tool and not an experiment).
func TestRegistryMarkers(t *testing.T) {
	blocks, err := Blocks(readDoc(t, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Registry {
		if _, ok := blocks[r.ID]; ok != r.Deterministic {
			t.Errorf("%s: deterministic %v, generated block %v", r.ID, r.Deterministic, ok)
		}
	}

	design := readDoc(t, "DESIGN.md")
	a, b := strings.Index(design, "## 4."), strings.Index(design, "## 5.")
	if a < 0 || b < a {
		t.Fatal("DESIGN.md has no §4")
	}
	ids := regexp.MustCompile(`(?m)^\| ([EM]\d[\w-]*) \|`).FindAllStringSubmatch(design[a:b], -1)
	if len(ids) < 20 {
		t.Fatalf("DESIGN.md §4 lists %d experiments", len(ids))
	}
	for _, m := range ids {
		n := 0
		for _, r := range Registry {
			for _, tbl := range r.Tables {
				if tbl == m[1] {
					n++
				}
			}
		}
		if n != 1 && m[1] != "E21" {
			t.Errorf("DESIGN.md §4's %s is rendered by %d registry rows, want 1", m[1], n)
		}
	}
}

// TestCheckFlagsDrift changes one digit of the E4 block (analytic: it renders
// in milliseconds at full scale) and requires Check to fail naming E4, and to
// pass on the unchanged document.
func TestCheckFlagsDrift(t *testing.T) {
	doc := readDoc(t, "EXPERIMENTS.md")
	e4, _ := Lookup("E4")
	if err := Check(doc, []Row{e4}, false, io.Discard); err != nil {
		t.Fatalf("unchanged EXPERIMENTS.md: %v", err)
	}
	blocks, err := Blocks(doc)
	if err != nil {
		t.Fatal(err)
	}
	block := blocks["E4"]
	i := strings.Index(block, "| 64 | ") + len("| 64 | ")
	digit := block[i]
	drifted := block[:i] + string('0'+(digit-'0'+1)%10) + block[i+1:]
	err = Check(strings.Replace(doc, block, drifted, 1), []Row{e4}, false, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "E4: ") {
		t.Fatalf("one digit changed in the E4 block: Check returned %v, want an error naming E4", err)
	}
}
