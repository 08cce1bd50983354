// E4 (Table 3): the node-size sensitivity of B-trees versus Bε-trees in the
// affine model, evaluated numerically from the core cost formulas across a
// node-size sweep so the "B-trees are highly sensitive, Bε-trees much less
// so" claim is visible as data.

package experiments

import (
	"iomodels/internal/core"
)

// SensitivityConfig parameterizes the Table 3 sweep.
type SensitivityConfig struct {
	Alpha  float64   // normalized bandwidth cost per 4 KiB block
	LogNM  float64   // ln(N/M)
	Fanout float64   // the general-F row's fanout
	Blocks []float64 // node sizes in 4 KiB blocks
}

// DefaultSensitivityConfig uses the 1 TB Hitachi's α from Table 2.
func DefaultSensitivityConfig() SensitivityConfig {
	return SensitivityConfig{
		Alpha:  0.0031,
		LogNM:  10,
		Fanout: 16,
		Blocks: []float64{1, 4, 16, 64, 256, 1024, 4096},
	}
}

// SensitivityPoint is Table 3 evaluated at one node size.
type SensitivityPoint struct {
	Blocks float64
	Rows   []core.Table3Row
}

// Table3Sweep evaluates the three designs across node sizes.
func Table3Sweep(cfg SensitivityConfig) []SensitivityPoint {
	var out []SensitivityPoint
	for _, b := range cfg.Blocks {
		out = append(out, SensitivityPoint{
			Blocks: b,
			Rows:   core.Table3(cfg.Alpha, b, cfg.LogNM, cfg.Fanout),
		})
	}
	return out
}

// RenderTable3 formats the symbolic rows at one representative size plus the
// sensitivity sweep.
func RenderTable3(points []SensitivityPoint) string {
	cols := []column[SensitivityPoint]{{"B (4K blocks)", func(p SensitivityPoint) string { return fmt0(p.Blocks) }}}
	for i, r := range points[0].Rows {
		cols = append(cols,
			column[SensitivityPoint]{r.Design + " ins", func(p SensitivityPoint) string { return f3(p.Rows[i].Insert) }},
			column[SensitivityPoint]{r.Design + " qry", func(p SensitivityPoint) string { return f3(p.Rows[i].Query) }})
	}
	return renderRows("Table 3: normalized op costs vs node size (B-tree grows ~linearly in B; Bε-tree ~√B)", points, cols)
}
