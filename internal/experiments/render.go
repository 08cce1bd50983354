// Package experiments contains one harness per table and figure of the
// paper's evaluation, plus the §4 prediction-error claims and the §6/§8
// design experiments. Each harness runs real workloads on the simulated
// devices and returns structured results; cmd/ tools render them as the
// aligned text tables and CSV series the paper plots. DESIGN.md's
// per-experiment index maps experiment IDs (E1..E12) to these functions.
package experiments

import (
	"fmt"
	"strings"
)

// RenderTable formats rows as an aligned text table.
func RenderTable(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
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

// grid lays rows out through cols: the header line and one line of cells
// per row, for RenderTable or RenderCSV.
func grid[R any](rows []R, cols []column[R]) (headers []string, cells [][]string) {
	for _, c := range cols {
		headers = append(headers, c.head)
	}
	for _, r := range rows {
		line := make([]string, len(cols))
		for i, c := range cols {
			line[i] = c.cell(r)
		}
		cells = append(cells, line)
	}
	return headers, cells
}

// indices returns 0, 1, … n-1: the rows of a table whose columns are series.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// renderRows formats one aligned table line per row through a column list:
// every Render* table in the package is a title, rows and columns.
func renderRows[R any](title string, rows []R, cols []column[R]) string {
	headers, cells := grid(rows, cols)
	return RenderTable(title, headers, cells)
}

// RenderCSV formats rows as CSV (no quoting needed: cells are numbers and
// simple names).
func RenderCSV(headers []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(headers, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
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
