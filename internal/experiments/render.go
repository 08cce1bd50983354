// Package experiments contains one harness per table and figure of the
// paper's evaluation, plus the §4 prediction-error claims and the §6/§8
// design experiments. Each harness runs real workloads on the simulated
// devices and returns structured results; every Render* formats them as the
// GitHub pipe tables EXPERIMENTS.md records. The registry (registry.go) runs
// each harness at the scale EXPERIMENTS.md records; cmd/repro lists, runs
// and checks its rows, and DESIGN.md §4 maps experiment IDs to them.
package experiments

import (
	"fmt"
	"strings"
)

// RenderTable formats rows as a GitHub pipe table under its title: the one
// format of every table, on a terminal and in EXPERIMENTS.md alike.
func RenderTable(title string, headers []string, rows [][]string) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n\n", title)
	}
	line := func(cells []string) {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	line(headers)
	b.WriteString(strings.Repeat("|---", len(headers)) + "|\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// column is one column of a table of Rs: its header and how a row fills it.
type column[R any] struct {
	head string
	cell func(R) string
}

// renderRows formats one table line per row through a column list: every
// Render* table in the package is a title, rows and columns.
func renderRows[R any](title string, rows []R, cols []column[R]) string {
	var headers []string
	for _, c := range cols {
		headers = append(headers, c.head)
	}
	var cells [][]string
	for _, r := range rows {
		line := make([]string, len(cols))
		for i, c := range cols {
			line[i] = c.cell(r)
		}
		cells = append(cells, line)
	}
	return RenderTable(title, headers, cells)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func fmt0(v float64) string { return fmt.Sprintf("%.0f", v) }

func intStr(v int) string { return fmt.Sprintf("%d", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }

// humanBytes renders a byte count like the paper's axis labels.
func humanBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
